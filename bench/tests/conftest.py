import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# the package under test and the benchmark's own modules
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
