import sys
from pathlib import Path

# The benchmark imports the checkout's itkrm, as run.py arranges for its children.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
