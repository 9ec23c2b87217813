"""Every function and method in src/drtricks is reached by a drtricks command,
or is on an allowlist that names what keeps it.

A fixed matrix of subcommands runs in-process under ``sys.setprofile``, at
tiny sizes on one CPU, so nothing forks and every call is seen. It covers
every task, k 1 and 2, every ``tta`` mode, ``postprocess``, both ``aux``
losses, ``augment`` and two diverging fits. Importing drtricks is part of
every command, so each module body runs again under the profiler too: that
reaches the helpers that only run at import. Lambdas, comprehensions and
class bodies are left out.
"""
import importlib.util
import inspect
import sys
import types
from pathlib import Path

from drtricks.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "drtricks"

# file:qualname -> what keeps it although no command calls it
ALLOWED_UNREACHED = {
    "models.py:weighted_dice_loss": "criterion 1 pins the dice loss and its gradient",
    "models.py:bce_loss": "criterion 1 pins the BCE loss and its gradient",
    "models.py:focal_loss": "criterion 1 pins the focal loss and its gradient",
    "models.py:seg_total_loss": "criterion 1 pins dice + alpha * aux; the segmenter "
                                "trainer computes its gradient without the loss value",
    "metrics.py:auc_macro_ovr": "criterion 2 pins the macro one-vs-rest AUC",
    "metrics.py:_binary_auc": "criterion 2, through auc_macro_ovr",
    "metrics.py:_average_ranks": "criterion 2, through auc_macro_ovr",
    "postprocess.py:grade_postedit": "criterion 6 pins the mask-guided grade edit",
    "data.py:SoftMaskSet.__post_init__": "criterion 6 builds soft mask sets",
    "ensemble.py:_serve": "runs only in a forked worker; TestMapMembers covers it on two CPUs",
    "models.py:MLP.__reduce__": "pickles a model back from a forked worker; "
                                "TestMapMembers covers it",
}


def _functions() -> set[str]:
    """file:qualname of every function and method code object under SRC."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # module and class bodies are not optimized; lambdas and comprehensions are <named>
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add(f"{path.name}:{code.co_qualname}")
    return found


def _traced(run) -> set[str]:
    """file:qualname of every function under SRC that ``run()`` calls."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {f"{Path(c.co_filename).name}:{c.co_qualname}" for c in codes
            if Path(c.co_filename).resolve().parent == SRC}


def _import_every_module() -> None:
    """Run each module body again, in a module object that sys.modules never sees."""
    for path in sorted(SRC.glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"drtricks.{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _clear_caches() -> None:
    """Empty every ``functools.lru_cache`` in drtricks: a result cached by an
    earlier test would keep the function behind it from running."""
    for name, module in list(sys.modules.items()):
        if name.startswith("drtricks."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _matrix(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every command, in order."""
    lab, unl, dev = tmp / "lab" / "data.csv", tmp / "unl" / "data.csv", tmp / "dev" / "data.csv"
    seg, segdev = tmp / "seg", tmp / "segdev"
    tab = {"train": lab, "dev": dev, "unlabeled": unl}
    segs = {"train": seg, "dev": segdev}

    def cmd(command, name, task, data, train="", pipeline="", code=0, epochs=2):
        """``command`` under the config ``name``.ini, writing to ``name``/."""
        lines = "".join(f"{key} = {value}\n" for key, value in data.items())
        cfg = tmp / f"{name}.ini"
        cfg.write_text(f"[run]\ntask = {task}\n\n[data]\n{lines}\n[train]\nepochs = {epochs}\n"
                       f"batch_size = 8\n{train}\n[pipeline]\n{pipeline}")
        seed = ["--seeds", "0"] if command == "ablate" else ["--seed", "0"]
        return [command, "--config", str(cfg), *seed, "--out", str(tmp / name)], code

    synth = [
        ["--task", "grading", "--n", "30", "--seed", "0", "--out", str(lab.parent)],
        ["--task", "grading", "--n", "30", "--seed", "1", "--out", str(unl.parent),
         "--unlabeled", "--id-offset", "1000"],
        ["--task", "grading", "--n", "30", "--seed", "2", "--out", str(dev.parent),
         "--id-offset", "2000"],
        ["--task", "segmentation", "--n", "3", "--size", "32", "--seed", "0", "--out", str(seg)],
        ["--task", "segmentation", "--n", "2", "--size", "32", "--seed", "1", "--out",
         str(segdev), "--id-offset", "100"],
    ]
    return [(["synth", *argv], 0) for argv in synth] + [
        cmd("train", "g1", "grading", tab),
        cmd("train", "g2", "grading", tab, pipeline="ensemble_k = 2\n"),
        cmd("rpl", "grpl", "grading", tab, pipeline="rpl_rounds = 2\n"),
        cmd("predict", "gp1", "grading", {"dev": dev, "model": tmp / "g1" / "model.ckpt"},
            pipeline="tta = flip\n"),
        cmd("predict", "gp2", "grading", {"dev": dev, "model": tmp / "g2"}),
        cmd("evaluate", "ge", "grading",
            {"dev": dev, "predictions": tmp / "gp1" / "predictions.csv"}),
        cmd("train", "q1", "quality", tab, pipeline="postprocess = true\n"),
        cmd("ablate", "ga", "grading", {}, "[synth]\nn_labeled = 30\nn_unlabeled = 30\n",
            "ensemble_k = 2\nrpl_rounds = 2\n"),
        cmd("train", "s1", "segmentation", segs, "aux = focal\naugment = true\n", epochs=8),
        cmd("train", "s2", "segmentation", segs, "lr = 0.2\n",
            "ensemble_k = 2\ntta = rotate\npostprocess = true\n"),
        cmd("predict", "sp1", "segmentation", {"dev": segdev, "model": tmp / "s1" / "model.ckpt"},
            pipeline="tta = flip\n"),
        cmd("predict", "sp2", "segmentation",
            {"dev": segdev, "model": tmp / "s2" / "ensemble.json"},
            pipeline="tta = rotate\npostprocess = true\n"),
        cmd("evaluate", "se", "segmentation", {"dev": segdev, "predictions": tmp / "sp2"}),
        cmd("ablate", "sa", "segmentation", {},
            "augment = true\n[synth]\nn_labeled = 3\nn_dev = 1\nsize = 32\n",
            "ensemble_k = 2\n"),
        # a diverging fit, alone and as an ensemble member
        cmd("train", "d1", "grading", {"train": lab}, "lr = 1e30\n", code=3),
        cmd("train", "d2", "grading", {"train": lab}, "lr = 1e30\n", "ensemble_k = 2\n", code=3),
    ]


def test_every_function_is_reached_or_allowlisted(tmp_path, cpus, capsys):
    cpus(1)  # one worker: map_members forks nothing, so the profiler sees every member
    wrong = []

    def run():
        _clear_caches()
        _import_every_module()
        for argv, expected in _matrix(tmp_path):
            if (code := main(argv)) != expected:
                wrong.append((argv, code))

    called = _traced(run)
    assert wrong == [], capsys.readouterr().err
    unreached = sorted(_functions() - called - set(ALLOWED_UNREACHED))
    assert not unreached, f"wire into a command, pin by a criterion, or delete: {unreached}"
    reached = sorted(called & set(ALLOWED_UNREACHED))
    assert not reached, f"drop these reached names from the allowlist: {reached}"


def test_allowlist_names_existing_functions():
    assert set(ALLOWED_UNREACHED) <= _functions()
