"""Layer-attributed serving benchmark (run ``python3 perfbench/run.py --help``)."""
