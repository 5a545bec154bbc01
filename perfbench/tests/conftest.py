import sys
from pathlib import Path

# The benchmark's modules import each other by bare name, as run.py
# arranges for them; do the same for the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
