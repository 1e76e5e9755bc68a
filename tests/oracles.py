"""Independent oracles, written before and apart from the library code.

These deliberately re-derive results with different structure (explicit
feature-map walks, itertools enumeration) so they stay meaningful as a
second route.
"""

import itertools
import math
import zlib

import numpy as np

from edgenas import devices
from edgenas.pipeline import fitness
from edgenas.space import Configuration, sample_uniform


def layer_walk_counts(block, kernels, fc1, fc2, output_classes=7, side=48):
    """Walk the feature maps layer by layer and tally weights/multiplies.

    kernels: one kernel count per block, length == block.
    """
    assert len(kernels) == block
    params = 0
    macs = 0
    channels = 1
    for k in kernels:
        # first conv of the block
        params += (3 * 3 * channels + 1) * k
        macs += side * side * (3 * 3 * channels) * k
        # second conv
        params += (3 * 3 * k + 1) * k
        macs += side * side * (3 * 3 * k) * k
        side //= 2  # pooling
        channels = k
    units = side * side * channels
    for width in (fc1, fc2, output_classes):
        params += units * width + width
        macs += units * width
        units = width
    return params, macs


def kind_sequence(arch):
    """The layer kinds of an ArchitectureDescriptor, in order."""
    return tuple(layer.kind for layer in arch.layers)


def recomputed_fitness(record):
    """A TrialRecord's fitness, recomputed from its own metrics."""
    return fitness(
        record.accuracy_pct, record.latency_mean_ms, record.dynamic_power_w, record.fitness_kind
    )


def surrogate_base_accuracy(space, config):
    """The surrogate's full-precision accuracy in closed form: a logistic
    of a depth reward plus one cosine wave per active parameter, squashed
    onto [88.32, 99.49]. The waves' amplitude, cycles and phase are drawn,
    in that order and parameter by parameter, from default_rng(49); x is
    the value's step count from lo over the grid's last step count (0.5
    on a one-value grid). k3 exists from 3 blocks, k4 from 4."""
    names = ("block", "k1", "k2", "k3", "k4", "fc1", "do1", "fc2", "do2")
    rng = np.random.default_rng(49)
    waves = {}
    for name in names:
        amplitude = float(rng.uniform(0.45, 0.95))
        cycles = float(rng.uniform(0.10, 0.40))
        phase = float(rng.uniform(0.0, 1.0))
        waves[name] = (amplitude, cycles, phase)
    total = 0.3 * (config.block - 2) / 2.0
    for name in names:
        if (name == "k3" and config.block < 3) or (name == "k4" and config.block < 4):
            continue
        spec = space.params[name]
        steps = (spec.hi - spec.lo) // spec.step
        x = (getattr(config, name) - spec.lo) // spec.step / steps if steps else 0.5
        amplitude, cycles, phase = waves[name]
        total += amplitude * math.cos(2.0 * math.pi * (cycles * x + phase))
    return 88.32 + (99.49 - 88.32) * (1.0 / (1.0 + math.exp(-total)))


def enumerate_config_tuples(space):
    """All valid configurations as plain tuples, by direct nested product
    over the grids (no canonical-index machinery)."""
    grids = {name: list(space.spec_for(name).grid) for name in space.params}
    tuples = []
    for block in grids["block"]:
        kernel_names = ["k1", "k2"]
        if block >= 3:
            kernel_names.append("k3")
        if block == 4:
            kernel_names.append("k4")
        axes = [grids[name] for name in kernel_names]
        axes += [grids["fc1"], grids["do1"], grids["fc2"], grids["do2"]]
        for combo in itertools.product(*axes):
            tuples.append((block,) + tuple(zip(kernel_names + ["fc1", "do1", "fc2", "do2"], combo)))
    return tuples


def conv_subspace_count(space):
    """Count (block, kernel...) tuples by listing them."""
    grids = {name: list(space.spec_for(name).grid) for name in space.params}
    count = 0
    for block in grids["block"]:
        kernel_names = ["k1", "k2"] + (["k3"] if block >= 3 else []) + (
            ["k4"] if block == 4 else []
        )
        count += len(list(itertools.product(*(grids[n] for n in kernel_names))))
    return count


def fc_subspace_count(space):
    grids = {name: list(space.spec_for(name).grid) for name in space.params}
    return len(grids["fc1"]) * len(grids["do1"]) * len(grids["fc2"]) * len(grids["do2"])


# Reference TPE: the list-based implementation the incremental
# edgenas.tpe.suggest replaced. It rebuilds every density from the whole
# history on each call, so it is O(n) per suggestion, and it draws with
# Generator.choice; the library must suggest exactly what it suggests.


def tpe_split_history(history):
    """Lowest-loss ceil(gamma*n) successful entries vs the rest; ties keep
    the earlier entry in the good side."""
    entries = history.succeeded()
    if not entries:
        raise ValueError("empty history")
    n_good = math.ceil(history.settings.gamma * len(entries))
    order = sorted(range(len(entries)), key=lambda i: (entries[i].loss, i))
    good_idx = set(order[:n_good])
    good = [entries[i] for i in range(len(entries)) if i in good_idx]
    bad = [entries[i] for i in range(len(entries)) if i not in good_idx]
    return good, bad


def split_losses(losses, gamma):
    """Indices of the lowest-loss ceil(gamma*n) entries, and of the rest,
    from one stable sort: ties keep the earlier entry in the good side."""
    if not len(losses):
        raise ValueError("empty history")
    order = np.argsort(losses, kind="stable")
    n_good = math.ceil(gamma * len(losses))
    return order[:n_good], order[n_good:]


def position_counts(positions, width):
    """Per parameter, the observations of each grid position: row j counts
    column j of ``positions`` over ``width`` positions, and -1 (an inactive
    parameter) is not an observation. The from-scratch counts that
    edgenas.tpe.ObservationHistory keeps incrementally as each trial is
    recorded."""
    n_params = positions.shape[1]
    bins = positions + 1 + (width + 1) * np.arange(n_params)
    counts = np.bincount(bins.ravel(), minlength=n_params * (width + 1))
    return counts.reshape(n_params, width + 1)[:, 1:]


def tpe_density_weights(grid, observations):
    counts = {v: 0 for v in grid}
    for value in observations:
        counts[value] += 1
    denom = len(observations) + 1.0 * len(grid)
    return tuple((counts[v] + 1.0) / denom for v in grid)


def tpe_param_values(entries, name):
    """Values of ``name`` in the entries that carry it."""
    return [getattr(e.config, name) for e in entries if getattr(e.config, name) is not None]


def tpe_suggest(space, history):
    """What edgenas.tpe.suggest must return for this history."""
    settings = history.settings
    rng = np.random.default_rng([settings.seed, len(history.entries)])
    if len(history.entries) < settings.n_startup or not history.succeeded():
        return sample_uniform(space, rng)

    good, bad = tpe_split_history(history)
    densities = {}
    for name in space.params:
        grid = space.spec_for(name).grid
        densities[name] = (
            grid,
            tpe_density_weights(grid, tpe_param_values(good, name)),
            tpe_density_weights(grid, tpe_param_values(bad, name)),
        )
    seen = {entry.config for entry in history.entries}

    best_score = -math.inf
    best_config = None
    best_unseen_score = -math.inf
    best_unseen = None
    for _ in range(settings.n_candidates):
        grid, good_w, bad_w = densities["block"]
        pos = int(rng.choice(len(grid), p=good_w))
        values = {"block": grid[pos]}
        score = good_w[pos] / bad_w[pos]
        for name in space.active_params(values["block"]):
            if name == "block":
                continue
            grid, good_w, bad_w = densities[name]
            pos = int(rng.choice(len(grid), p=good_w))
            values[name] = grid[pos]
            score *= good_w[pos] / bad_w[pos]
        candidate = Configuration(output_classes=space.output_classes, **values)
        if score > best_score:
            best_score = score
            best_config = candidate
        if candidate not in seen and score > best_unseen_score:
            best_unseen_score = score
            best_unseen = candidate
    return best_unseen if best_unseen is not None else best_config


# The jittered SimulatedDevice samples as first written: each pair's noise
# drawn from default_rng of its own key, and each draw added and clamped at
# zero one Python float at a time. The library seeds a block's streams in
# one pass and clamps the whole array, and must return the same floats,
# signed zeros included. The cost models are looked up in the device module
# at call time, so a test that stubs them stubs the reference too; a test
# that stubs the device's generators passes the same stub as ``rng``.


def jitter_rng(device, config, salt):
    return np.random.default_rng(
        [device.seed, zlib.crc32(device.profile.name.encode()),
         zlib.crc32(config.canonical_json().encode()), salt]
    )


def simulated_latency_samples(device, config, arch, runs, rng=None):
    base = devices.simulate_latency(arch, device.profile)
    rng = jitter_rng(device, config, 1) if rng is None else rng
    noise = rng.normal(0.0, device.jitter.latency_sigma_ms, size=runs)
    return [max(base + float(n), 0.0) for n in noise]


def simulated_power_traces(device, config, arch, window_s, sample_hz, rng=None):
    n = window_s * sample_hz
    idle = device.profile.power_model.idle_w
    latency = devices.simulate_latency(arch, device.profile)
    active = idle + devices.simulate_dynamic_power(arch, device.profile, latency)
    rng = jitter_rng(device, config, 2) if rng is None else rng
    idle_noise = rng.normal(0.0, device.jitter.power_sigma_w, size=n)
    active_noise = rng.normal(0.0, device.jitter.power_sigma_w, size=n)
    return (
        [max(idle + float(x), 0.0) for x in idle_noise],
        [max(active + float(x), 0.0) for x in active_noise],
    )


def nnls_oracle(a, b, tol=1e-9):
    """(x, residual, unique) for argmin |a x - b| over x >= 0, by brute force.

    The optimal set {x >= 0 : a x = a x*} has a vertex whose columns are
    independent, and least squares on those columns alone gives it. So
    the least residual among the non-negative least-squares solutions of
    every column subset is the optimum. x* is unique when every subset
    that reaches it gives the same x and no direction d >= 0, d != 0, has
    a d = 0 (along which x* could move at no cost).
    """
    m, n = a.shape
    subsets = [list(s) for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]

    def solve(matrix, rhs, columns):
        x = np.zeros(n)
        x[columns] = np.linalg.lstsq(matrix[:, columns], rhs, rcond=None)[0]
        return x

    feasible = [np.zeros(n)] + [x for x in (solve(a, b, s) for s in subsets) if (x >= 0).all()]
    residuals = [np.linalg.norm(a @ x - b) for x in feasible]
    best = min(residuals)
    optima = [x for x, r in zip(feasible, residuals) if r <= best + tol]
    # A free direction is a point of {d >= 0, a d = 0, sum(d) = 1}; if there
    # is one, there is one on independent columns, as above.
    rows = np.vstack([a, np.ones(n)])
    rhs = np.append(np.zeros(m), 1.0)
    free_direction = any(
        np.linalg.norm(rows @ d - rhs) <= tol and (d >= -tol).all()
        for d in (solve(rows, rhs, s) for s in subsets)
    )
    unique = not free_direction and all(np.allclose(x, optima[0], atol=1e-7) for x in optima)
    return optima[0], best, unique
