"""Paper-reported reference values, for side-by-side comparison.

Everything here is transcribed from the TensorDIMM paper's text (exact
figures were not released as data files, so only the quantities the text
states explicitly are recorded).  The bench harness prints measured values
next to these (:func:`repro.bench.harness.compare_line`).
"""

#: Fig. 11 / Section 6.1 — max effective bandwidth, 32 DIMMs each side.
FIG11_TENSORNODE_MAX_GBPS = 808.0
FIG11_CPU_MAX_GBPS = 192.0
FIG11_SPEEDUP = 4.0  # "an average 4x increase in memory bandwidth utilization"

#: Fig. 12 / Section 6.1 — scaling with DIMM count.
FIG12_NODE_MAX_GBPS = 3100.0  # "reaches up to 3.1 TB/sec" at 128 DIMMs
FIG12_CPU_SATURATION_GBPS = 200.0  # "saturates at around 200 GB/sec"

#: Fig. 14 / Section 6.2 — performance vs. the oracular GPU-only.
FIG14_TDIMM_VS_ORACLE_AVG = 0.84
FIG14_TDIMM_VS_ORACLE_MIN = 0.75
FIG14_SPEEDUP_VS_CPU_ONLY = 6.2
FIG14_SPEEDUP_VS_CPU_GPU = 8.9

#: Fig. 15 / Section 6.3 — speedups across embedding scales (1x..8x).
FIG15_SPEEDUP_VS_CPU_ONLY_RANGE = (6.2, 15.0)
FIG15_SPEEDUP_VS_CPU_GPU_RANGE = (8.9, 17.6)
FIG15_MAX_SPEEDUP = 35.0

#: Fig. 16 / Section 6.4 — sensitivity to the node<->GPU link bandwidth.
FIG16_PMEM_MAX_LOSS = 0.68
FIG16_TDIMM_MAX_LOSS = 0.15
FIG16_TDIMM_AVG_LOSS = 0.10

#: Section 3.2 — baseline slowdowns vs. GPU-only.
BASELINE_SLOWDOWN_RANGE = (7.3, 20.9)

#: Table 3 — NMP core utilisation on the VCU1525 (percent).
TABLE3 = {
    "SRAM queues": {"LUT": 0.00, "FF": 0.00, "DSP": 0.00, "BRAM": 0.01},
    "FPU": {"LUT": 0.19, "FF": 0.01, "DSP": 0.20, "BRAM": 0.00},
    "ALU": {"LUT": 0.09, "FF": 0.01, "DSP": 0.01, "BRAM": 0.00},
}

#: Section 6.5 — TensorNode power.
POWER_PER_DIMM_W = 13.0
POWER_NODE_W = 416.0
POWER_BUDGET_RANGE_W = (350.0, 700.0)

#: Table 1 — baseline TensorNode configuration.
TABLE1_NUM_DIMMS = 32
TABLE1_DIMM_GBPS = 25.6
TABLE1_NODE_GBPS = 819.2

#: Table 2 — workload topologies: (lookup tables, max reduction, FC layers).
TABLE2 = {
    "NCF": (4, 2, 4),
    "YouTube": (2, 50, 4),
    "Fox": (2, 50, 1),
    "Facebook": (8, 25, 6),
}
