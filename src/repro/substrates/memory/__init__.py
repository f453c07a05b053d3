"""Multi-tier storage substrate (GPU HBM, host DRAM, local SSD, PFS)."""
