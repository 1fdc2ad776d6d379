"""Every key a shipped config resolves to changes what its run writes.

For each config in ``configs/``, each leaf of its resolved form (the config
with every default filled in) is moved to other valid values in turn, until
one writes some data file whose bytes differ from the run of the resolved
form itself.  Each moved run must exit 0; a key whose values move no byte is
a key the run never reads.  Runs go through ``dynkit.cli.run``
in-process and are compared by the sha256 of each output their manifest
lists.
"""

import json
import os

import pytest

from dynkit.cli import _TASKS, _walk, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# (config, dotted key prefix): why moving the key moves no data file
UNMOVED = {
    ("wigner_ground.json", "hamiltonian."):
        "the wigner task transforms its initial packet and reads no "
        "hamiltonian; the block is still required, since a benchmark "
        "workload config carries it",
}

# (config, dotted key): why the key has no other valid value
FIXED = {
    ("eigen_central_fd.json", "hamiltonian.kinetic.name"):
        "the central stencil discretizes p^2/2m only, so free is the one "
        "kinetic it takes",
}

#: the coefficients a ``poly`` name takes when the probe switches to it
POLY = [0.0, 0.0, 0.6]


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def _written(cfg):
    """``cfg`` as a config file holds it: an optional block left off is absent."""
    if isinstance(cfg, dict):
        return {key: _written(value) for key, value in cfg.items()
                if value is not None}
    return cfg


def _leaves(node, path=()):
    """(path, value) of each non-mapping value; None is an absent block."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path, node


def _field(task, path):
    """The schema field of the key at ``path`` of a resolved ``task`` config."""
    field = _TASKS[task].blocks[path[0]]
    for key in path[1:]:
        field = field.fields[key]
    return field


def _candidates(resolved, path, value):
    """Other values for the leaf at ``path``, as (path replaced, new value)."""
    parent = _field(resolved["task"], path[:-1]) if len(path) > 1 else None
    if parent is not None and parent.kind == "named" and path[-1] == "name":
        # another name takes only its own parameters, or the one it requires
        for other in parent.fields:
            if other != value:
                yield path[:-1], {"name": other}
                yield path[:-1], {"name": other, "coeffs": POLY}
        return
    if value is None:
        yield path, {}  # the block with its defaults
    elif isinstance(value, str):
        for choice in _field(resolved["task"], path).choices:
            if choice != value:
                yield path, choice
    elif isinstance(value, int):
        for moved in (value - 1, value + 1, value // 2, value * 2):
            yield path, moved
    elif isinstance(value, float):
        for moved in (value + 0.1 * (abs(value) or 1.0), value / 2, value * 2):
            yield path, moved
    elif isinstance(value, list):
        yield path, [value[0] + 0.1 * (abs(value[0]) or 1.0), *value[1:]]


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _moved(resolved, path, value):
    """The written configs with the leaf at ``path`` moved to a valid value."""
    for at, moved in _candidates(resolved, path, value):
        cfg = _written(_replaced(resolved, at, moved))
        if _walk(cfg)[0] == []:
            yield cfg


def _outputs(tmp_path, label, cfg):
    """{file: sha256} of what a run of ``cfg`` writes; the run must exit 0."""
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / label
    assert run(str(config), str(out)) == 0, label
    manifest = json.loads((out / "manifest").read_text())
    return {entry["name"]: entry["sha256"] for entry in manifest["outputs"]}


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_every_resolved_key_moves_a_data_file(tmp_path, name):
    problems, resolved = _walk(_shipped(name))
    assert problems == []
    base = _outputs(tmp_path, "base", _written(resolved))
    unmoved, fixed, exempt = [], [], set()
    for i, (path, value) in enumerate(_leaves(resolved)):
        if path == ("task",):
            continue
        key = ".".join(path)
        reasons = [prefix for (config, prefix) in UNMOVED
                   if config == name and (key + ".").startswith(prefix)]
        if reasons:
            exempt.update(reasons)
            continue
        moved = None  # until a valid value is run
        for j, cfg in enumerate(_moved(resolved, path, value)):
            moved = _outputs(tmp_path, f"case{i}_{j}", cfg) != base
            if moved:
                break
        if moved is None:
            fixed.append(key)
        elif not moved:
            unmoved.append(key)
    assert unmoved == []
    assert fixed == [key for (config, key) in FIXED if config == name]
    # each exemption still names keys of its config
    assert exempt == {prefix for (config, prefix) in UNMOVED if config == name}
