import sys
from pathlib import Path

# the benchmark imports cfdetox from this checkout's src/, as its children do
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
