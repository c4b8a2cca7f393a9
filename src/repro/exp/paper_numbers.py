"""The paper's reported numbers (ICDE 2021, Tables II–VI), and each table
as a frame shaped like the measured one, for the side-by-side print of the
table CLI and the benchmarks and for EXPERIMENTS.md."""
import pandas as pd

# totals over the paper's 50 testing names
TABLE2_TOTALS = {"n_authors_td": 336, "n_papers_td": 1529, "n_papers_dblp": 3426}

TABLE3 = {
    "AdaBoost": {"MicroA": 0.6812, "MicroP": 0.6891, "MicroR": 0.8046, "MicroF": 0.7424},
    "GBDT": {"MicroA": 0.6914, "MicroP": 0.7422, "MicroR": 0.7041, "MicroF": 0.7226},
    "RF": {"MicroA": 0.7118, "MicroP": 0.7215, "MicroR": 0.8066, "MicroF": 0.7617},
    "XGBoost": {"MicroA": 0.6935, "MicroP": 0.7467, "MicroR": 0.7009, "MicroF": 0.7231},
    "ANON": {"MicroA": 0.6697, "MicroP": 0.8164, "MicroR": 0.5438, "MicroF": 0.6528},
    "NetE": {"MicroA": 0.7318, "MicroP": 0.8273, "MicroR": 0.6702, "MicroF": 0.7405},
    "Aminer": {"MicroA": 0.6182, "MicroP": 0.8235, "MicroR": 0.4217, "MicroF": 0.5578},
    "GHOST": {"MicroA": 0.4800, "MicroP": 0.6814, "MicroR": 0.1675, "MicroF": 0.2690},
    "IUAD": {"MicroA": 0.8174, "MicroP": 0.8608, "MicroR": 0.8113, "MicroF": 0.8353},
}

TABLE4 = {
    "SCN": {"MicroA": 0.6402, "MicroP": 0.8662, "MicroR": 0.4374, "MicroF": 0.5813},
    "GCN": {"MicroA": 0.8174, "MicroP": 0.8608, "MicroR": 0.8113, "MicroF": 0.8353},
}

# seconds per name at 20/40/60/80/100 % of the data
TABLE5 = {
    "ANON": [4.221, 9.214, 17.955, 35.833, 58.489],
    "NetE": [16.113, 21.597, 24.396, 28.798, 33.093],
    "Aminer": [2.901, 3.564, 4.420, 5.258, 6.078],
    "GHOST": [8.500, 21.575, 44.195, 92.165, 183.480],
    "IUAD": [0.092, 0.420, 1.132, 2.044, 2.599],
}

TABLE6 = {
    100: {"MicroA": 0.8154, "MicroP": 0.8685, "MicroR": 0.7974, "MicroF": 0.8315,
          "MicroA+": 0.8062, "MicroP+": 0.8649, "MicroR+": 0.7829, "MicroF+": 0.8218,
          "avg_ms": 47.76},
    200: {"MicroA": 0.8104, "MicroP": 0.8546, "MicroR": 0.8008, "MicroF": 0.8268,
          "MicroA+": 0.8079, "MicroP+": 0.8588, "MicroR+": 0.7941, "MicroF+": 0.8252,
          "avg_ms": 45.22},
    300: {"MicroA": 0.8166, "MicroP": 0.8544, "MicroR": 0.8160, "MicroF": 0.8348,
          "MicroA+": 0.8085, "MicroP+": 0.8606, "MicroR+": 0.7931, "MicroF+": 0.8255,
          "avg_ms": 45.40},
}

# Each table with the measured table's label column (first) and rows.
PAPER_FRAMES = {
    2: pd.DataFrame([{"name": "Total", **TABLE2_TOTALS}]),
    3: pd.DataFrame(TABLE3).T.reset_index(names="method"),
    4: pd.DataFrame(TABLE4)
    .assign(Improv=lambda t: (t.GCN - t.SCN).round(4))
    .reset_index(names="metric"),
    5: pd.DataFrame(TABLE5, index=["20%", "40%", "60%", "80%", "100%"]).T.reset_index(names="method"),
    6: pd.DataFrame(TABLE6).T.reset_index(names="n_new"),
}

TITLES = {2: "Table II", 3: "Table III", 4: "Table IV",
          5: "Table V (seconds per name)", 6: "Table VI"}


def side_by_side(table: int, measured: pd.DataFrame) -> str:
    """Table ``table`` as measured, then as the paper reports it."""
    return "\n".join([
        f"== {TITLES[table]} ==",
        "--- measured ---",
        measured.to_string(index=False),
        "--- paper ---",
        PAPER_FRAMES[table].to_string(index=False),
    ])
