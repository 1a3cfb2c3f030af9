"""Command-line entry point: experiment orchestration and structured output.

Every subcommand reads an optional JSON config (--config), applies flag
overrides, checks it against the published schema, materializes defaults,
runs, and writes CSV/JSON results.  When a result goes to a file, the fully
resolved config is echoed to `<out>.config.json` so the run can be
reproduced byte-for-byte.  Floats are written with 17 significant digits.

Everything runs serially in one process; the only parallelism is inside BLAS
(set its thread count with e.g. OPENBLAS_NUM_THREADS).  Results are
byte-identical across reruns and from the echoed config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, rng
from .amp import amp_run
from .baselines import (
    SampleBatch,
    _pack_spins,
    _unpack_spins,
    empirical_w2,
    exact_gibbs,
    exact_sample,
    glauber_run,
    read_batch_bits,
)
from .config import ConfigError, CONFIG_SCHEMA, dump_config, resolve_config
from .disorder import (
    DisorderTensors,
    gen_planted,
    gen_random,
    read_tensors,
    write_tensors,
)
from .experiments import chaos_experiment, stability_experiment
from .localization import SamplerParams, sample
from .mixture import MixtureSpec
from .state_evolution import _psi_at, mse_prediction, q_schedule, se_recursion, thresholds
from .tap import TapParams, _ftap, _onsager_terms, relative_hessian_extremes

__all__ = ["main"]

#: Replicas are processed in fixed batches of this size.  The chunk bounds the
#: memory of one sampler call and pins the batch shape, hence the BLAS
#: reduction order and the bytes written, whatever the replica count.
REPLICA_CHUNK = 64


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_result(out: str | None, text: str, resolved: dict) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w") as f:
        f.write(text)
    with open(out + ".config.json", "w") as f:
        f.write(dump_config(resolved))


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _spins_to_hex(x: np.ndarray) -> str:
    return _pack_spins(x).tobytes().hex()


def _hex_to_spins(fields: list[str], n: int) -> np.ndarray:
    """`x_bits_hex` fields, ceil(n/8) bytes each -> (len(fields), n) spins."""
    row_bytes = (n + 7) // 8
    packed = bytearray()
    for h in fields:
        b = bytes.fromhex(h) if len(h) == 2 * row_bytes else b""
        if len(b) != row_bytes:  # fromhex skips spaces between bytes
            raise ValueError(f"x_bits_hex {h!r} is not {row_bytes} bytes, as n = {n} needs")
        packed += b
    return _unpack_spins(np.frombuffer(packed, np.uint8).reshape(len(fields), row_bytes), n)


def _spec(cfg: dict) -> MixtureSpec:
    """The run's mixture: the tensor file's (a given `mixture` must be it), or
    else the config's."""
    if cfg.get("tensor_file"):
        return _load_tensors(cfg).spec
    return MixtureSpec.from_dict(cfg["mixture"])


def _load_tensors(cfg: dict) -> DisorderTensors:
    """A tensor file's instance, whose mixture the config then holds (a given
    `mixture` must be the file's), or one generated from the config."""
    if cfg.get("tensor_file"):
        g = read_tensors(cfg["tensor_file"])
        given = cfg.setdefault("mixture", g.spec.to_dict())
        if MixtureSpec.from_dict(given) != g.spec:
            msg = f"{given} differs from the tensor file's {g.spec.to_dict()}"
            raise ConfigError(f"config field 'mixture': {msg}")
        return g
    spec = MixtureSpec.from_dict(cfg["mixture"])
    if cfg["gen"]["mode"] == "planted":
        x = _planted_x(cfg)
        return gen_planted(spec, cfg["n"], cfg["gen"]["planted_beta"], x, cfg["seed"])
    return gen_random(spec, cfg["n"], cfg["seed"])


def _planted_x(cfg: dict) -> np.ndarray:
    u = rng.stream(cfg["seed"], "planted-x").uniform(size=cfg["n"])
    return np.where(u < 0.5, -1.0, 1.0)


def _tilt(cfg: dict, n: int, t: float, x: np.ndarray | None) -> np.ndarray:
    """The tilt y = t x + sqrt(t) z of `amp` and `tap`, z from the
    (seed, "amp-y") stream; no planted x counts as x = 0, and t = 0 gives 0."""
    z = rng.stream(cfg["seed"], "amp-y").standard_normal(n)
    return t * (x if x is not None else 0.0) + math.sqrt(t) * z


def _sampler_params(cfg: dict) -> SamplerParams:
    """Every `sampler` key except `replicas` is a SamplerParams field."""
    sp = {k: v for k, v in cfg["sampler"].items() if k != "replicas"}
    return SamplerParams(beta=cfg["beta"], seed=cfg["seed"], **sp)


# --- subcommand handlers -----------------------------------------------------


def _cmd_gen_disorder(cfg: dict) -> None:
    if not cfg.get("out"):
        raise ConfigError("config field 'out': gen-disorder requires an output path")
    g = _load_tensors(cfg)
    write_tensors(cfg["out"], g)
    with open(cfg["out"] + ".config.json", "w") as f:
        f.write(dump_config(cfg))


def _cmd_thresholds(cfg: dict) -> None:
    spec = _spec(cfg)
    rep = thresholds(spec)
    _write_result(cfg.get("out"), json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n", cfg)


def _cmd_se(cfg: dict) -> None:
    spec = _spec(cfg)
    beta = cfg["beta"]
    ts = np.arange(0.0, cfg["se"]["t_max"] + cfg["se"]["t_step"] / 2, cfg["se"]["t_step"])
    rows = []
    for t in ts:
        q = se_recursion(spec, beta, float(t), K=1).q_star
        rows.append([float(t), q, _psi_at(spec, beta, float(t), q), 1.0 - q])
    _write_result(cfg.get("out"), _csv(["t", "q_star", "psi_star", "mmse"], rows), cfg)


def _cmd_amp(cfg: dict) -> None:
    beta, t, K = cfg["beta"], cfg["amp"]["t"], cfg["amp"]["k"]
    if cfg["amp"]["planted"]:
        if cfg.get("tensor_file"):
            msg = "a tensor file does not store the planted x, so the MSE is undefined"
            raise ConfigError(f"config field 'amp/planted': {msg}; set amp.planted=false")
        if cfg["gen"]["mode"] == "planted":
            msg = "amp plants its own instance at beta and would ignore gen.mode=\"planted\""
            raise ConfigError(
                f"config field 'amp/planted': {msg}; set amp.planted=false to plant through gen"
            )
        spec = MixtureSpec.from_dict(cfg["mixture"])
        g = gen_planted(spec, cfg["n"], beta, _planted_x(cfg), cfg["seed"])
    else:
        g = _load_tensors(cfg)
    x = g.meta.get("x")  # only a planted instance has one
    traj = amp_run(g, _tilt(cfg, g.n, t, x), beta, K + 1, keep_history=True)
    prof = se_recursion(g.spec, beta, t, K=K + 2)
    rows = []
    for st, st_next in zip(traj[:-1], traj[1:]):
        mse_emp = float(np.mean((st.m_hat - x) ** 2)) if x is not None else float("nan")
        znorm = np.linalg.norm(st.z)
        ratio = np.linalg.norm(st_next.z - st.z) / znorm if znorm > 0 else float("nan")
        rows.append([st.k, st.q_hat, mse_emp, mse_prediction(prof, st.k), ratio])
    header = ["k", "q_hat", "mse_empirical", "mse_predicted", "z_increment_ratio"]
    _write_result(cfg.get("out"), _csv(header, rows), cfg)


def _cmd_tap(cfg: dict) -> None:
    beta, t = cfg["beta"], cfg["tap"]["t"]
    g = _load_tensors(cfg)
    y = _tilt(cfg, g.n, t, g.meta.get("x"))
    # AMP's z is the natural parameter
    u = amp_run(g, y, beta, cfg["tap"]["k_amp"], keep_history=False)[-1].z
    m = np.tanh(u)
    params = TapParams(beta=beta, q=cfg["tap"]["q"], gamma_reg=cfg["tap"]["gamma"], y=y)
    value, gvec = _ftap(g, u[None], m[None], params, *_onsager_terms(g, params))  # one kernel call
    grad_norm = np.linalg.norm(gvec[0])
    report = {
        "ftap_value": value[0],
        "grad_norm": float(grad_norm),
        "grad_norm_per_sqrt_n": float(grad_norm / math.sqrt(g.n)),
        "n": g.n,
        "q": cfg["tap"]["q"],
        "gamma": cfg["tap"]["gamma"],
    }
    if cfg["tap"]["spectrum"]:
        lo, hi = relative_hessian_extremes(g, m, params)
        report["relative_hessian_min"] = lo
        report["relative_hessian_max"] = hi
    _write_result(cfg.get("out"), json.dumps(report, indent=2, sort_keys=True) + "\n", cfg)


def _cmd_sample(cfg: dict) -> None:
    g = _load_tensors(cfg)
    params = _sampler_params(cfg)
    n_rep = cfg["sampler"]["replicas"]
    q_values = q_schedule(g.spec, params.beta, params.delta, params.L)
    rows = []
    traj_parts = []
    for lo in range(0, n_rep, REPLICA_CHUNK):
        k = min(REPLICA_CHUNK, n_rep - lo)
        res = sample(g, params, n_replicas=k, q_values=q_values, replica_start=lo)
        for i, x in enumerate(res.x_alg):
            row = [lo + i, cfg["seed"], res.final_q[i], res.grad_norm_last[i], _spins_to_hex(x)]
            rows.append(row)
        if params.keep_trajectory:
            traj_parts.append(res.y_trajectory)
    header = ["replica", "seed", "final_q", "grad_norm_last", "x_bits_hex"]
    _write_result(cfg.get("out"), _csv(header, rows), cfg)
    if params.keep_trajectory and cfg.get("out"):
        traj = np.concatenate(traj_parts, axis=1)  # (L+1, replicas, n)
        with open(cfg["out"] + ".traj.bin", "wb") as f:
            f.write(np.ascontiguousarray(traj.transpose(1, 0, 2), dtype="<f8").tobytes())


def _cmd_exact(cfg: dict) -> None:
    g = _load_tensors(cfg)
    dist = exact_gibbs(g, cfg["beta"])
    batch = exact_sample(dist, cfg["exact"]["m_samples"], cfg["seed"])
    rows = [[i, _spins_to_hex(x)] for i, x in enumerate(batch.spins)]
    _write_result(cfg.get("out"), _csv(["sample", "x_bits_hex"], rows), cfg)


def _cmd_glauber(cfg: dict) -> None:
    g = _load_tensors(cfg)
    gb = cfg["glauber"]
    x0 = np.ones(g.n)
    batch = glauber_run(
        g, cfg["beta"], x0, gb["sweeps"], cfg["seed"], burn_in=gb["burn_in"], thin=gb["thin"]
    )
    rows = [[i, _spins_to_hex(x)] for i, x in enumerate(batch.spins)]
    _write_result(cfg.get("out"), _csv(["state", "x_bits_hex"], rows), cfg)


def _read_batch_csv(path: str) -> SampleBatch:
    """The `x_bits_hex` column, decoded with the `n` of `<path>.config.json`;
    n and the row widths are checked before any decoding."""
    with open(path + ".config.json") as f:
        paired = json.load(f)
    n = paired.get("n") if isinstance(paired, dict) else None
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}.config.json: n must be an integer >= 1, not {n!r}")
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, the header {len(header)}")
    col = header.index("x_bits_hex")
    return SampleBatch(spins=_hex_to_spins([row[col] for row in rows], n))


def _read_batch(path: str) -> SampleBatch:
    if path.endswith(".bits"):
        return read_batch_bits(path)
    return _read_batch_csv(path)


def _cmd_w2(cfg: dict) -> None:
    if "w2" not in cfg:
        raise ConfigError("config field 'w2': w2 requires w2.batch_a and w2.batch_b")
    a = _read_batch(cfg["w2"]["batch_a"])
    b = _read_batch(cfg["w2"]["batch_b"])
    _write_result(cfg.get("out"), _csv(["w2"], [[empirical_w2(a, b)]]), cfg)


def _cmd_chaos(cfg: dict) -> None:
    spec = _spec(cfg)
    ch = cfg["chaos"]
    seeds = [cfg["seed"] + i for i in range(ch["n_seeds"])]
    rows = chaos_experiment(
        spec, cfg["n"], cfg["beta"], ch["s_list"], seeds, batch_size=ch["batch_size"]
    )
    rows = [[r["s"], r["seed"], r["overlap_moment"], r["w2"]] for r in rows]
    _write_result(cfg.get("out"), _csv(["s", "seed", "overlap_moment", "w2"], rows), cfg)


def _cmd_stability(cfg: dict) -> None:
    spec = _spec(cfg)
    st = cfg["stability"]
    seeds = [cfg["seed"] + i for i in range(st["n_seeds"])]
    rows = stability_experiment(
        spec, cfg["n"], cfg["beta"], st["s_list"], _sampler_params(cfg), seeds,
        n_replicas=st["replicas"],
    )
    rows = [[r["s"], r["seed"], r["spin_distance"], r["mean_distance"]] for r in rows]
    _write_result(
        cfg.get("out"), _csv(["s", "seed", "spin_distance", "mean_distance"], rows), cfg
    )


_HANDLERS = {
    "gen-disorder": _cmd_gen_disorder,
    "thresholds": _cmd_thresholds,
    "se": _cmd_se,
    "amp": _cmd_amp,
    "tap": _cmd_tap,
    "sample": _cmd_sample,
    "exact": _cmd_exact,
    "glauber": _cmd_glauber,
    "w2": _cmd_w2,
    "chaos": _cmd_chaos,
    "stability": _cmd_stability,
}

# flat flags that overwrite top-level config keys
_FLAG_KEYS = ["n", "beta", "seed", "out", "tensor_file"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glasslocal",
        description="Diffusion-based sampler for mixed p-spin Gibbs measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _HANDLERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")
        p.add_argument("--mixture", help='JSON mixture, e.g. \'{"2": 0.5}\'')
        p.add_argument("--n", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--tensor-file", dest="tensor_file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a nested config key, e.g. --set sampler.L=100",
        )
    return parser


def _loads(text: str, source: str, hint: str = ""):
    """Parse JSON `text`; a malformed one is a ConfigError naming `source`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{source}: malformed JSON ({e}){hint}") from None


def _apply_overrides(cfg: dict, args) -> dict:
    if args.mixture is not None:
        cfg["mixture"] = _loads(args.mixture, "--mixture")
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for item in args.set:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        path, raw = item.split("=", 1)
        section, key = path.split(".", 1)
        hint = '; string values need JSON quotes, e.g. --set \'gen.mode="planted"\''
        cfg.setdefault(section, {})[key] = _loads(raw, f"--set {item!r}", hint)
    return cfg


def _show_warning(message, *_) -> None:
    """Print a warning as `warning: <message>`, with no source file or line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.print_schema:
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return 0
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(args)


def _run(args) -> int:
    try:
        cfg = {}
        if args.config:
            with open(args.config) as f:
                cfg = _loads(f.read(), f"--config {args.config!r}")
        if "kind" in cfg and cfg["kind"] != args.kind:
            raise ConfigError(f"config field 'kind': {cfg['kind']!r} != subcommand {args.kind!r}")
        cfg["kind"] = args.kind
        cfg = _apply_overrides(cfg, args)
        cfg = resolve_config(cfg)
        _HANDLERS[args.kind](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError, OSError, MemoryError) as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
