#!/usr/bin/env python3
"""Freeze the published exchanger comparison data into a bundled JSON file.

The three sizing cases have been solved in a dozen prior studies; their
reported designs and cost breakdowns are transcribed verbatim below
(``None`` marks cells printed as '-' or left blank).  The studies do not
share every modelling convention: tube-side fouling, the tube-elbow
loss constant, the pitch layout and the pump-efficiency treatment all
vary between sources.  For each reference column this script fits the
small discrete convention set that best reproduces the printed total
cost, stores the fitted profile alongside the data, and prints a
verification summary (our chain vs. every printed C_total).

Run from the repository root:

    python3 scripts/build_sthe_data.py
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from snailopt.sthe import (DomainError, closeness_percent,  # noqa: E402
                           evaluate_design, make_case)

OUT = Path(__file__).resolve().parent.parent / "src" / "snailopt" / "data" / "sthe_published.json"

# ---------------------------------------------------------------------------
# verbatim transcription of the three comparison tables
# ---------------------------------------------------------------------------

CASE1_COLUMNS = [
    "Original Study", "GA", "PSO", "ABC", "BBO", "ITHS", "I-ITHS", "CI",
    "FFA", "TLBO", "SAMPE-Jaya", "ARGA", "SHMS",
]
CASE1_ROWS = {
    "D_s": [0.894, 0.83, 0.81, 1.3905, 0.801, 0.762, 0.7635, 0.7800, 0.858, 0.858, 0.76860, 0.6651, 0.6447],
    "L": [4.83, 3.379, 3.115, 3.963, 2.04, 2.0791, 2.0391, 1.9367, 2.416, 2.416, 1.47660, 1.2636, 1.1121],
    "b": [0.356, 0.5, 0.424, 0.4669, 0.5, 0.4988, 0.4955, 0.500, 0.402, 0.402, 0.4999, 0.4903, 0.4166],
    "d_o": [0.02, 0.016, 0.015, 0.0104, 0.01, 0.0101, 0.01, 0.010, 0.01575, 0.01575, 0.01, 0.01, 0.01],
    "P_t": [0.025, 0.02, 0.0187, None, 0.0125, 0.1264, 0.0125, 0.0125, 0.01968, 0.01968, 0.0125, 0.0125, 0.0125],
    "C_1": [0.005, 0.004, 0.0037, None, 0.0025, 0.0253, 0.0025, 0.0025, None, None, None, 0.0025, 0.0025],
    "n_t": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    "N_t": [918, 1567, 1658, 1528, 3587, 3454, 3558, 3734.1233, 1692, 1692, 3614, 2625.873, 2451.7768],
    "v_t": [0.75, 0.69, 0.67, 0.36, 0.77, 0.782, 0.7744, 0.7381, 0.656, 0.656, 0.7624, 1.0492, 1.1237],
    "Re_t": [14925, 10936, 10503, None, 7642.49, 7842.52, 7701.29, 7342.7474, 10286, 10286, 7586.57, 10440.12, 11181.4577],
    "Pr_t": [5.7, 5.7, 5.7, None, 5.7, 5.7, 5.7, 5.6949, 5.7, 5.7, 5.7, 5.694915, 5.6949],
    "h_t": [3812, 3762, 3721, 3818, 4314, 4415.918, 4388.79, 4584.7085, 6228, 6228, 3777.88, 6196.002, 6545.5440],
    "f_t": [0.028, 0.031, 0.0311, None, 0.034, 0.0354, 0.03555, 0.0343, 0.03119, 0.03119, 0.03401, 0.0310, 0.0305],
    "dP_t": [6251, 4298, 4171, 3043, 6156, 6998.7, 6887.63, 5862.7287, 4246, 4246, 5078.37, 9756.238, 10349.6306],
    "a_s": [0.032, 0.083, 0.0687, None, 0.0801, 0.07602, 0.07567, 0.0780, None, None, None, 0.0652, 0.0537],
    "D_e": [0.014, 0.011, 0.0107, None, 0.007, 0.00719, 0.00711, 0.0071, 0.0105, 0.0105, 0.00711, 0.0071, 0.0071],
    "v_s": [0.58, 0.44, 0.53, 0.118, 0.46, 0.48755, 0.48979, 0.4752, 0.54, 0.54, 0.48221, 0.5683, 0.6899],
    "Re_s": [18381, 11075, 12678, None, 7254, 7736.89, 7684.054, 7451.3906, 12625, 12625, 7571.34, 8912.325, 10819.8036],
    "Pr_s": [5.1, 5.1, 5.1, None, 5.1, 5.08215, 5.08215, 5.0821, 5.1, 5.1, 5.1, 5.0821, 5.0821],
    "h_s": [1573, 1740, 1950.8, 3396, 2197, 2213.89, 2230.913, 2195.9461, 1991, 1991, 2084.05, 2422.804, 2695.5285],
    "f_s": [0.33, 0.357, 0.349, None, 0.379, 0.3759, 0.37621, 0.3780, 0.349, 0.349, 0.377126, 0.3680, 0.3575],
    "dP_s": [35789, 13267, 20551, 8390, 13799, 14794.94, 14953.91, 13608.4472, 18788, 18788, 10488.39, 10746.31, 15447.1357],
    "U": [615, 660, 713.9, 832, 755, 760.594, 761.578, 764.5084, 876.4, 876.4, 719.05, 1031.472, 1090.5668],
    "S": [278.6, 262.8, 243.2, None, 229.95, 228.32, 228.03, 227.1607, 202.3, 202.3, 167.56, 168.2758, 159.1575],
    "C_inv": [51507, 49259, 46453, 44559, 44536, 44301.66, 44259.01, 44132.5190, 39336, 39336, 37519.89, 35498.87, 34139.5254],
    "C_annual": [21111, 947, 1038.7, 1014.5, 984, 964.164, 962.4858, 955.9112, 1040, 1040, 731.71, 1043.96, 1233.4685],
    "C_total_disc": [12973, 5818, 6778.2, 6233.8, 6046, 5924.343, 5914.058, 5873.6607, 6446, 6446, 4496.08, 6414.68, 7579.1304],
    "C_total": [64480, 55077, 53231, 50793, 50582, 50226, 50173, 50006.1797, 45782, 45782, 42015.98, 41913.54, 41718.6558],
}

CASE2_COLUMNS = [
    "Original Study", "GA", "PSO", "ABC", "BBO", "ITHS", "I-ITHS", "CI",
    "FFA", "ARGA", "SHMS",
]
CASE2_ROWS = {
    "D_s": [0.539, 0.63, 0.59, 0.3293, 0.74, 0.32079, 0.31619, 0.4580, 0.7276, 0.400009, 0.4],
    "L": [4.88, 2.153, 1.56, 3.6468, 1.199, 5.15184, 5.06235, 1.3833, 1.64, 0.710016, 0.69],
    "b": [0.127, 0.12, 0.1112, 0.0924, 0.1066, 0.24725, 0.24147, 0.125, 0.1054, 0.154626, 0.1526],
    "d_o": [0.025, 0.02, 0.015, 0.0105, 0.015, 0.01204, 0.01171, 0.0100, 0.01575, 0.011441, 0.0114],
    "P_t": [0.031, 0.025, 0.0187, None, 0.0188, 0.01505, 0.01464, 0.0125, 0.01968, 0.014301, 0.0143],
    "C_1": [0.006, 0.005, 0.0037, None, 0.0038, 0.00301, 0.00293, 0.0025, None, 0.00286, 0.0028],
    "n_t": [4, 4, 2, 2, 2, 1, 1, 2, None, 2, 2],
    "N_t": [158, 391, 646, 511, 1061, 301, 309, 1152.888, 924, 635.2294, 635.2587],
    "v_t": [1.44, 0.87, 0.93, 0.43, 0.69, 0.8615, 0.8871, 0.6522, 0.677, 0.904129, 0.9041],
    "Re_t": [8227, 4068, 3283, None, 2298, 2306.77, 2303.46, 1450.0174, 2408, 2299.998, 2299.9910],
    "Pr_t": [55.2, 55.2, 55.2, None, 55.2, 56.4538, 56.4538, 56.4538, 55.2, 56.45385, 56.4538],
    "h_t": [619, 1168, 1205, 2186, 1251, 1398.85, 1435.68, 1639.2213, 1262, 1174.574, 1208.7230],
    "f_t": [0.033, 1168, 0.044, None, 0.05, 0.04848, 0.04854, 0.0591, 0.049, 0.049861, 0.04986],
    "dP_t": [49245, 14009, 16926, 1696, 5109, 10502.45, 11165.45, 5382.9311, 9374, 5179.414, 5091.273],
    "a_s": [0.0137, 0.0148, 0.0131, None, 0.0158, 0.01585, 0.01527, 0.0114, None, 0.01237, 0.0122],
    "D_e": [0.025, 0.019, 0.0149, None, 0.0149, 0.01188, 0.01157, 0.0071, 0.0156, 0.008134, 0.0081],
    "v_s": [0.47, 0.43, 0.495, 0.37, 0.432, 0.40948, 0.42526, 0.5672, 0.4, 0.524974, 0.5316],
    "Re_s": [25281, 18327, 15844, None, 13689, 10345.29, 10456.39, 8568.0357, 14448, 9073.644, 9188.785],
    "Pr_s": [7.5, 7.5, 7.5, None, 7.5, 7.6, 7.6, 7.6, 7.5, 7.6, 7.6],
    "h_s": [920, 1034, 1288, 868, 1278, 1248.86, 1290.789, 2062.1966, 1156, 1857.576, 1870.585],
    "f_s": [0.315, 0.331, 0.337, None, 0.345, 0.35987, 0.35929, 0.3702, 0.3422, 0.367025, 0.3663],
    "dP_s": [24909, 15717, 21745, 10667, 15275, 14414.26, 15820.74, 36090.0964, 12768, 9708.001, 9780.794],
    "U": [317, 376, 409.3, 323, 317.75, 326.071, 331.358, 381.6827, 347.6, 336.1286, 339.9925],
    "S": [61.5, 52.9, 47.5, 61.566, 60.35, 58.641, 57.705, 50.09702, 56.6, 56.84084, 56.1948],
    "C_inv": [19007, 17599, 16707, 19014, 18799, 18536.55, 18383.46, 17129.8543, 18202, 18241.79, 18135.82],
    "C_annual": [1304, 440, 523.3, 197.139, 164.414, 272.576, 292.7937, 352.885, 210.2, 155.71, 154.3616],
    "C_total_disc": [8012, 2704, 3215.6, 1211.3, 1010.25, 1674.86, 1799.09, 2163.3257, 1231, 956.79, 948.485],
    "C_total": [27020, 20303, 19922.6, 20225, 19810, 20211, 20182, 19298.18, 19433, 19198.58, 19084.31],
}

CASE3_COLUMNS = [
    "Original Study", "GA", "PSO", "ABC", "BBO", "ITHS", "I-ITHS", "CI",
    "TLBO", "SAMPE-Jaya", "ARGA", "SHMS",
]
CASE3_ROWS = {
    "D_s": [0.387, 0.62, 0.0181, 1.0024, 0.55798, 0.5726, 0.5671, 0.5235, 0.5524, 0.5671, 0.460204468, 0.4702],
    "L": [4.88, 1.548, 1.45, 2.4, 1.133, 0.9737, 0.9761, 1.1943, 0.9854, 0.9569, 0.793852708, 0.7054],
    "b": [0.305, 0.44, 0.423, 0.354, 0.5, 0.4974, 0.4989, 0.5000, 0.464, 0.499, 0.460204468, 0.5104],
    "d_o": [0.019, 0.016, 0.0145, 0.103, 0.01, 0.0101, 0.01, 0.0100, 0.010, 0.01, 0.011981248, 0.01],
    "P_t": [0.023, 0.02, 0.0187, None, 0.0125, 0.0126, 0.0125, 0.0125, 0.0125, 0.0125, 0.01497656, 0.0125],
    "C_1": [0.004, 0.004, 0.0036, None, 0.0025, 0.0025, 0.0025, 0.0025, None, None, 0.002995312, 0.0025],
    "n_t": [2, 2, 2, 2, 2, 2, 2, 2, None, None, 2, 2],
    "N_t": [160, 803, 894, 704, 1565, 1845, 1846, 1548.6665, 1743, 1841, 781.7678209, 1222.003],
    "v_t": [1.76, 0.68, 0.74, 0.36, 0.898, 0.747, 0.761, 0.9083, 0.80695, 0.76399, 1.25317137, 1.1508],
    "Re_t": [36409, 9487, 9424, None, 7804, 6552, 6614, 7889.7151, 7009.98, 6636.82, 13043.08036, 9997.4150],
    "Pr_t": [6.2, 6.2, 6.2, None, 6.2, 6.2, 6.2, 6.2026, 6.2026, 6.2025, 6.202580645, 6.2025],
    "h_t": [6558, 6043, 5618, 4438, 9180, 5441, 5536, 4901.7267, None, None, 6290.111612, 6170.5740],
    "f_t": [0.023, 0.031, 0.0314, None, 0.0337, 0.0369, 0.0368, 0.0336, 0.034817, 0.035386, 0.029220623, 0.0314],
    "dP_t": [62812, 3673, 4474, 2046, 4176, 3869, 4049, 6200.0472, 4416.42, 3926.01, 7719.023019, 6975.8420],
    "a_s": [0.0236, 0.0541, 0.059, None, 0.0558, 0.0569, 0.0565, 0.0523, 5789.17, 5541.30, 0.04235763, 0.0480],
    "D_e": [0.013, 0.015, 0.01, None, 0.0071, 0.0071, 0.0071, 0.0071, 0.00711, 0.00711, 0.008517657, 0.0071],
    "v_s": [0.94, 0.41, 0.375, 0.12, 0.398, 0.3893, 0.3919, 0.4237, 0.4326, 0.39172, 0.523657822, 0.4620],
    "Re_s": [16200, 8039, 4814, None, 3515, 3473, 3461, 3746.0280, 3830.527, 3467.839, 5547.544747, 4085.1680],
    "Pr_s": [5.4, 5.4, 5.4, None, 5.4, 5.4, 5.4, 5.3935, 5.3935, 5.3935, 5.393548387, 5.3935],
    "h_s": [5735, 3476, 4088.3, 5608, 4911, 4832, 4871, 5078.1022, 5374.56, 5088.428, 5267.295773, 5333.3460],
    "f_s": [0.337, 0.374, 0.403, None, 0.423, 0.4238, 0.4241, 0.4191, 0.4177, 0.423988, 0.395136701, 0.4136],
    "dP_s": [67684, 4365, 4271, 27166, 5917, 4995, 5062, 6585.2425, 6412.95, 4928.072, 5024.067328, 4016.2380],
    "U": [1471, 1121, 1177, 1187, 1384, 1220, 1229, 1198.4141, 1274.73, 1242.84, 1296.89011, 1294.3750],
    "S": [46.6, 62.5, 59.2, 54.72, 55.73, 57.3, 56.64, 58.0975, 53.9355, 55.318, 59.48776644, 59.6033],
    "C_inv": [16549, 19163, 18614, 17893, 18059, 18273, 18209, 18447.6373, 17764.30, 17991.96, 18674.91, 18693.7960],
    "C_annual": [4466, 272, 276, 257.82, 203.68, 231, 238, 383.4699, 278.455, 231.53, 346.19, 333.7221],
    "C_total_disc": [27440, 1671, 1696, 1584.2, 1251.5, 1419, 1464, 2356.2566, 1710.988, 1422.69, 2127.18, 2050.5779],
    "C_total": [43989, 20834, 20310, 19478, 19310, 19693, 19674, 20803.8940, 19475.297, 19414.65, 20802.09, 20744.3639],
}

TABLES = {
    1: (CASE1_COLUMNS, CASE1_ROWS),
    2: (CASE2_COLUMNS, CASE2_ROWS),
    3: (CASE3_COLUMNS, CASE3_ROWS),
}

# Closeness-to-best comparison (case -> [name, reported cost, closeness %, direction])
CLOSENESS = {
    1: [
        ["Original Study", 64480, 35.2998, "up"],
        ["GA", 55077, 24.2539, "up"],
        ["PSO", 53231.1, 21.6272, "up"],
        ["ABC", 50793, 17.8653, "up"],
        ["BBO", 50582, 17.5227, "up"],
        ["ITHS", 50226, 16.9381, "up"],
        ["I-ITHS", 50173, 16.8503, "up"],
        ["FFA", 45783, 8.8774, "up"],
        ["CI", 50006.18, 16.5729, "up"],
        ["TLBO", 45782, 8.8754, "up"],
        ["SAMPE-Jaya", 42015.98, 0.7076, "up"],
        ["ARGA", 41913.54, 0.4649, "up"],
    ],
    2: [
        ["Original Study", 27020, 29.3697, "up"],
        ["GA", 20303, 6.0025, "up"],
        ["PSO", 19922.6, 4.2077, "up"],
        ["ABC", 20225, 5.6400, "up"],
        ["BBO", 19810, 3.6632, "up"],
        ["ITHS", 20211, 5.5746, "up"],
        ["I-ITHS", 20182, 5.4389, "up"],
        ["FFA", 19433, 1.7943, "up"],
        ["CI", 19298.18, 1.1082, "up"],
        ["ARGA", 19198.58, 0.5952, "up"],
    ],
    3: [
        ["Original Study", 43989, 52.8419, "up"],
        ["GA", 20834, 0.4302, "up"],
        ["PSO", 20310, 2.1386, "down"],
        ["ABC", 19478, 6.5015, "down"],
        ["BBO", 19310, 7.4280, "down"],
        ["ITHS", 19693, 5.3387, "down"],
        ["I-ITHS", 19674, 5.4405, "down"],
        ["CI", 20803.89, 0.2861, "up"],
        ["TLBO", 19475.297, 6.5162, "down"],
        ["SAMPE-Jaya", 19414.65, 6.8490, "down"],
        ["ARGA", 20802.09, 0.2775, "up"],
    ],
}

# Reported multi-start statistics of the reference solver (30 trials).
PERFORMANCE = {
    1: {"best": 41718.6558, "mean": 41725.3892, "worst": 41728.6558,
        "std": 4.0847, "avg_evals": 20510, "avg_seconds": 9.62},
    2: {"best": 19084.3059, "mean": 19088.3476, "worst": 19097.2054,
        "std": 3.1663, "avg_evals": 17235, "avg_seconds": 8.10},
    3: {"best": 20744.3639, "mean": 20746.1280, "worst": 20749.8314,
        "std": 1.4565, "avg_evals": 44721, "avg_seconds": 20.13},
}

# Columns whose printed decision values fall outside the feasible box;
# treated as typographical and excluded from reproduction checks.
EXCLUDED = {
    (3, "PSO"): "printed D_s=0.0181 m is below the 0.1 m bound (likely a dropped digit)",
    (3, "ABC"): "printed d_o=0.103 m is above the 0.051 m bound (likely 0.0103)",
}

# Cells that are self-evidently garbled in print (documented, not used):
SUSPECT_CELLS = [
    {"case": 1, "column": "ITHS", "row": "P_t", "printed": 0.1264,
     "note": "pitch must be 1.25*d_o = 0.012625; printed value is 10x off"},
    {"case": 1, "column": "ITHS", "row": "C_1", "printed": 0.0253,
     "note": "clearance must be 0.25*d_o = 0.002525; printed value is 10x off"},
    {"case": 1, "column": "Original Study", "row": "C_annual", "printed": 21111,
     "note": "inconsistent with printed C_total_disc=12973 (annuity 6.1446); 2111.1 fits"},
    {"case": 2, "column": "GA", "row": "f_t", "printed": 1168,
     "note": "duplicates the h_t cell; friction factors are O(0.01)"},
    {"case": 3, "column": "TLBO", "row": "a_s", "printed": 5789.17,
     "note": "cross-flow areas are O(0.01) m^2; cell copied from elsewhere"},
    {"case": 3, "column": "SAMPE-Jaya", "row": "a_s", "printed": 5541.30,
     "note": "cross-flow areas are O(0.01) m^2; cell copied from elsewhere"},
]

# Columns whose printed rows contradict each other internally, so no
# single convention set can reproduce their totals from the decision
# variables.  Each note cites the specific clash.
OUTLIER_NOTES = {
    (1, "Original Study"): (
        "printed C_annual=21111 contradicts its own C_total_disc=12973 "
        "(annuity 6.1446 implies 2111.1); intermediate rows mix conventions"),
    (1, "ABC"): (
        "printed D_s=1.3905 with d_o=0.0104 implies a tube count near "
        "12000, an order of magnitude above the printed N_t; the totals "
        "cannot follow from the printed decision variables"),
    (1, "SAMPE-Jaya"): (
        "printed S=167.56 and C_inv=37519.89 are mutually inconsistent "
        "(the cost model maps C_inv back to S=181.9)"),
    (2, "PSO"): (
        "printed v_t=0.93 m/s contradicts printed N_t=646 with d_i=0.8*d_o "
        "(the flow area implies N_t~359); D_s=0.59 itself implies ~700 "
        "(square) or ~823 (triangular) tubes"),
    (2, "ABC"): (
        "printed v_t=0.43 m/s contradicts printed N_t=511 and d_o=0.0105 "
        "(the flow area forces ~1.33 m/s); the operating cost follows the "
        "fictitious low velocity"),
    (2, "BBO"): (
        "printed v_t=0.69 m/s requires N_t~484 but the column prints "
        "N_t=1061, which no standard layout constant yields from D_s=0.74, "
        "d_o=0.015"),
    (2, "FFA"): (
        "printed S=56.6 contradicts the geometric area of its own printed "
        "N_t=924, d_o=0.01575, L=1.64 (74.9 m^2)"),
    (3, "BBO"): (
        "printed dP_t=4176 Pa is inconsistent with its own printed "
        "v_t=0.898 and f_t=0.0337 (which give ~5875 Pa)"),
}


# Pump conventions seen across the studies: tube-side-only efficiency,
# efficiency on the full sum, a poorer pump, and no efficiency at all.
PUMP_OPTIONS = ((0.8, False), (0.8, True), (0.7, True), (1.0, True))


def profile(case, decision, printed_total):
    """The convention record of ``case`` and its total for ``decision``."""
    total = evaluate_design(case, decision).total
    return {
        "tube_fouling": case.tube.fouling,
        "layout": case.layout,
        "elbow_loss": case.elbow_loss,
        "passes": case.passes,
        "pump_efficiency": case.pump_efficiency,
        "efficiency_on_shell": case.efficiency_on_shell,
        "area_convention": case.area_convention,
        "model_c_total": total,
        "rel_error": abs(total - printed_total) / printed_total,
    }


def case_variant(case_id, conventions):
    """Case ``case_id`` under the convention record ``profile`` writes."""
    case = make_case(case_id)
    return replace(
        case, tube=replace(case.tube, fouling=conventions["tube_fouling"]),
        layout=conventions["layout"], elbow_loss=conventions["elbow_loss"],
        passes=conventions["passes"],
        pump_efficiency=conventions["pump_efficiency"],
        efficiency_on_shell=conventions["efficiency_on_shell"],
        area_convention=conventions["area_convention"],
    )


def fit_column(case, decision, printed_total, printed_passes):
    """Search the small convention grid for the best C_total match (the
    first of equal errors, in grid order)."""
    foulings = [0.00002, 0.0002] if case.case_id == 1 else [case.tube.fouling]
    best = None
    for fouling, layout, elbow, passes, (eff, on_shell), area in itertools.product(
            foulings, ("triangular", "square"), (4.0, 2.5),
            [printed_passes] if printed_passes else [1, 2, 4],
            PUMP_OPTIONS, ("duty", "geometry")):
        trial = case_variant(case.case_id, {
            "tube_fouling": fouling, "layout": layout, "elbow_loss": elbow,
            "passes": passes, "pump_efficiency": eff,
            "efficiency_on_shell": on_shell, "area_convention": area,
        })
        try:
            record = profile(trial, decision, printed_total)
        except DomainError:
            continue
        if best is None or record["rel_error"] < best["rel_error"]:
            best = record
    return best


def build():
    data = {
        "schema": 1,
        "description": (
            "Published shell-and-tube exchanger reference designs (three "
            "sizing cases), transcribed from the comparison tables, with "
            "fitted per-study modelling conventions and reproduction errors. "
            "Units: metres, Pa, W/m^2K, m^2, euro."
        ),
        "cases": {},
        "closeness": {str(k): [
            {"name": n, "c_total": c, "closeness_percent": p, "direction": d}
            for n, c, p, d in rows
        ] for k, rows in CLOSENESS.items()},
        "performance": {str(k): v for k, v in PERFORMANCE.items()},
        "suspect_cells": SUSPECT_CELLS,
    }

    for case_id, (columns, rows) in TABLES.items():
        case = make_case(case_id)
        entries = []
        for j, name in enumerate(columns):
            decision = [rows["d_o"][j], rows["D_s"][j], rows["b"][j], rows["L"][j]]
            entry = {
                "name": name,
                "decision": decision,
                "printed_passes": rows["n_t"][j],
                "c_total": rows["C_total"][j],
                "excluded": False,
                "exclude_reason": None,
                "profile": None,
            }
            reason = EXCLUDED.get((case_id, name))
            if reason:
                entry["excluded"] = True
                entry["exclude_reason"] = reason
            elif name in ("SHMS", "ARGA"):
                # the chain's own conventions; no fitting
                entry["profile"] = {**profile(case, decision, entry["c_total"]),
                                    "fitted": False}
            else:
                fitted = fit_column(case, decision, entry["c_total"], rows["n_t"][j])
                entry["profile"] = {**fitted, "fitted": True}
            if entry["profile"] is not None and not entry["excluded"]:
                entry["outlier"] = entry["profile"]["rel_error"] > 0.02
                if entry["outlier"]:
                    entry["outlier_note"] = OUTLIER_NOTES.get(
                        (case_id, name),
                        "no convention combination reproduces the printed total",
                    )
            entries.append(entry)
        data["cases"][str(case_id)] = {
            "label": case.label,
            "columns": columns,
            "rows": rows,
            "designs": entries,
        }
    return data


def verify(data):
    print("=== reproduction summary ===")
    failures = 0
    for case_id in (1, 2, 3):
        block = data["cases"][str(case_id)]
        shms = next(e for e in block["designs"] if e["name"] == "SHMS")
        err = shms["profile"]["rel_error"]
        ok = err < 0.005
        print(f"case {case_id}: SHMS column rel err {err:.2e} "
              f"({'OK' if ok else 'FAIL'} vs 0.5%)")
        if not ok:
            failures += 1
        others = [e for e in block["designs"] if e["name"] != "SHMS" and not e["excluded"]]
        within = [e for e in others if e["profile"]["rel_error"] <= 0.02]
        print(f"  other columns within 2%: {len(within)}/{len(others)} "
              f"(excluded: {sum(e['excluded'] for e in block['designs'])})")
        for e in others:
            p = e["profile"]
            tag = "ok  " if p["rel_error"] <= 0.02 else "MISS"
            print(f"    {tag} {e['name']:<15} printed={e['c_total']:>12.2f} "
                  f"model={p['model_c_total']:>12.2f} err={p['rel_error']*100:6.2f}% "
                  f"fouling={p['tube_fouling']:g} p={p['elbow_loss']:g} "
                  f"{p['layout'][:3]}/{p['area_convention'][:4]} n_t={p['passes']} "
                  f"eta={p['pump_efficiency']:g}{'(all)' if p['efficiency_on_shell'] else ''}")
        # bar: at most 4 irreproducible columns per case (= 8-of-12 for
        # the one case that actually has 12 comparison columns)
        if len(others) - len(within) > 4:
            failures += 1
            print(f"  *** more than 4 outlier columns for case {case_id}")

    print("=== closeness spot checks ===")
    for case_id in (1, 2, 3):
        best = PERFORMANCE[case_id]["best"]
        for row in data["closeness"][str(case_id)]:
            expect = closeness_percent(row["c_total"], best)
            # the comparison table prints magnitudes plus a direction flag
            printed = row["closeness_percent"]
            if row["direction"] == "down":
                printed = -printed
            gap = abs(expect - printed)
            flag = "" if gap < 0.001 else f"  <-- printed value off by {gap:.4f}pp"
            if row["name"] == "ARGA" or flag:
                print(f"case {case_id} {row['name']:<15} computed {expect:8.4f} "
                      f"printed {printed:8.4f}{flag}")
    return failures


def render(data):
    """The text of ``OUT`` for ``data``."""
    return json.dumps(data, indent=1)


def main():
    data = build()
    failures = verify(data)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(render(data))
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes), failures={failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
