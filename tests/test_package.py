"""The package's top level is the library's surface: entry points that check
their own inputs, and the settings and data classes they take and return."""

import re
from pathlib import Path
from types import ModuleType

import selfreid

ROOT = Path(__file__).resolve().parent.parent

SURFACE = {
    # entry points
    "train", "evaluate", "evaluate_encoder", "extract_bank", "generate_synthetic",
    "load_dataset", "save_dataset", "load_checkpoint", "save_checkpoint",
    "jaccard_distance_matrix",
    # settings and data classes
    "TrainConfig", "BatchSpec", "Temperatures", "LossWeights", "ClusterConfig",
    "PerturbationConfig", "SyntheticSpec", "EmbeddingDataset", "RetrievalSet", "EpochReport",
    "EvalReport", "ClusterAssignment", "OUTLIER", "JaccardPairs",
    "normalize_rows", "SelfReidError",
}


def submodules() -> set:
    return {name for name, value in vars(selfreid).items() if isinstance(value, ModuleType)}


def test_the_top_level_names_are_the_surface():
    assert {name for name in vars(selfreid) if not name.startswith("_")} - submodules() == SURFACE


def test_the_benchmark_and_the_differential_use_only_the_surface():
    # the differential calls its package `package`
    files = [*sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "bench").glob("*.md")),
             ROOT / "tests" / "quality_differential.py"]
    used = {name for path in files
            for name in re.findall(r"\b(?:selfreid|package)\.([A-Za-z]\w*)", path.read_text())}
    assert {"train", "TrainConfig", "generate_synthetic"} <= used
    assert used - submodules() <= SURFACE
