"""Command-line front end: spectra, synth, analyze, certify, fit.

A trace file written by synth holds the four measured channels analyze
reads (pipeline.TRACE_CHANNELS): the amplitude and phase signal
photocurrents, the shot-noise reference and the electronics floor.
pipeline makes them and reads them, and fileio writes and reads the
trace; this module handles flags and exit codes.  The quadrature
combinations behind the signal channels are not stored: each channel is
shaped straight from its chain PSD (pipeline.channel_psds), and per-beam
series are not modelled.

synth and analyze use up to two threads (fileio.on_two_workers); their
output does not depend on how many run.  synth hands the four channels to
fileio.write_trace, whose two workers shape them as they stream them into
the trace file as float32 blocks, the two signal channels first, so its
memory does not grow with the trace length.  analyze checks the trace's
header and size, then runs the file's sha256 and pipeline.readings on two
workers, and reads any further channel of the trace through, so every
sample is checked.  readings makes the four channels' Welch estimates one
after another: each reads its channel block by block, checks every block
finite and averages it, so no channel is held whole and its memory does
not grow with the trace length either.  An estimate transforms only the analyzer bin nearest f0,
the one analyze reads, by a direct DFT of each segment: O(L) per segment
of L samples, where the full grid takes an rfft.  The readings, each with
its standard error, are written only once every task has finished without
error.

Each subcommand imports the numpy-backed modules it runs when it starts,
so spectra, synth, analyze and fit load numpy and certify does not: its
arithmetic (twinbeam.certify) and its atomic writes (twinbeam.atomic),
imported with this module, need only the standard library, and certify's
value types are named tuples, so it loads no dataclasses or inspect
either.  fit, which reads no config and no trace, loads no hashlib.

Every command that takes --config checks the whole config before any
work: its analyzer settings, that synth.num_samples holds the two
half-overlapping segments the analyzer reads, and that the analysis
frequency lies between 0 and the Nyquist frequency.  The seed and f0 come
only from the config.
certify reads either an analysis JSON, which alone gives the electronics
floor, or the already-corrected --vx/--vy, never both; certify.report, the
one path from readings to verdict, makes the report, as in the demo.

Every JSON a command writes, to --out or to stdout, is built by _artifact
and written as atomic.json_text gives it.  Its "artifact" key names its
kind and format version (certify.ARTIFACT): twinbeam-spectra/1,
twinbeam-synth/1, twinbeam-analysis/1, twinbeam-certify/1 or
twinbeam-fit/1.  spectra, synth and analyze, which load a config, also
record the config's hash; the body's keys sit beside these two at the top
level.  certify refuses (exit 1) an analysis whose tag names another kind
or version, or is not a string; an analysis without a tag, such as one
written by hand, is read as before.

Exit codes: 0 success (an entanglement verdict of "separable" is data, not
an error); 1 usage or schema problems, such as a config or analysis JSON
that gives a key twice; 2 data or configuration infeasibility (a pump not
above threshold, a reading at or below the electronics floor, a series or
a config too short for the analyzer, a fit its data cannot identify), a
corrupt trace or spectrum CSV (with its byte offset where known; a CSV
header that names a column it reads twice is corrupt too), a trace too
large for the free disk space of its directory, or a run too large for
memory.
"""

import argparse
import json
import math
import sys
from reprlib import repr as _brief  # a long outside value prints cut short

from . import certify
from .atomic import json_text, unique_keys, write_json
from .errors import DomainError, TwinbeamError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="twinbeam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    spectra = sub.add_parser("spectra", help="evaluate the analytic noise spectra to CSV")
    spectra.add_argument("--config", required=True)
    spectra.add_argument("--f-min", type=float, default=0.0)
    spectra.add_argument("--f-max", type=float, default=100e6)
    spectra.add_argument("--num-points", type=int, default=1001)
    spectra.add_argument("--out", required=True)
    spectra.add_argument("--json", action="store_true")

    synth_cmd = sub.add_parser("synth", help="synthesize a measurement-chain trace file")
    synth_cmd.add_argument("--config", required=True)
    synth_cmd.add_argument("--out", required=True)
    synth_cmd.add_argument("--json", action="store_true")

    analyze = sub.add_parser("analyze", help="spectrum-analyzer readings from a trace file")
    analyze.add_argument("trace")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--json", action="store_true")

    certify_cmd = sub.add_parser("certify", help="correct readings and apply the Duan test")
    certify_cmd.add_argument("analysis", nargs="?", default=None,
                             help="analysis JSON from the analyze step")
    certify_cmd.add_argument("--vx", type=float, default=None,
                             help="already-corrected amplitude-difference variance (linear)")
    certify_cmd.add_argument("--vy", type=float, default=None,
                             help="already-corrected phase-sum variance (linear)")
    certify_cmd.add_argument("--mode-match", type=float, default=None,
                             help="de-embed this mode-matching efficiency from the phase channel")
    certify_cmd.add_argument("--out", default=None)
    certify_cmd.add_argument("--json", action="store_true")

    fit_cmd = sub.add_parser("fit", help="fit model parameters to a spectrum CSV")
    fit_cmd.add_argument("spectrum")
    fit_cmd.add_argument("--out", default=None)
    fit_cmd.add_argument("--json", action="store_true")
    return parser


def _artifact(kind, body, cfg=None):
    """The payload of a kind artifact: its tag, the hash of cfg if a config
    was loaded, then body's keys, all at the top level."""
    hashed = {} if cfg is None else {"config_hash": cfg.hash}
    return {"artifact": certify.ARTIFACT.format(kind), **hashed, **body}


def _emit(payload, out_path, as_json):
    if out_path:
        write_json(out_path, payload)
    if as_json or not out_path:
        print(json_text(payload))


def _cmd_spectra(args):
    import numpy as np

    from . import fileio, model
    from .config import load_config

    cfg = load_config(args.config)
    if not 0 <= args.f_min <= args.f_max < math.inf or args.num_points < 1:  # rejects nan too
        raise UsageError(
            f"invalid frequency range [{args.f_min}, {args.f_max}] / {_brief(args.num_points)} "
            "points")
    if 8 * args.num_points > sys.maxsize:  # numpy refuses such an array with no MemoryError
        raise DomainError(f"{_brief(args.num_points)} frequency points of 8 bytes each "
                          "are too large for memory")
    if args.f_min == args.f_max:
        freqs = np.array([args.f_min])
    else:  # only the last point can overflow, and linspace then sets it to f_max
        with np.errstate(over="ignore"):
            freqs = np.linspace(args.f_min, args.f_max, args.num_points)
    s_i = model.intensity_diff_spectrum(cfg.nopo, freqs)
    s_p = model.phase_sum_spectrum(cfg.nopo, freqs)
    fileio.write_spectrum_csv(args.out, freqs, amplitude=s_i, phase=s_p)
    if args.json:
        print(json_text(_artifact("spectra", {"out": args.out, "num_points": len(freqs)}, cfg)))
    return 0


def _read_through(series):
    """Read every block of series, for the checks its reader makes."""
    for _ in series.blocks():
        pass


def _cmd_synth(args):
    from . import fileio, pipeline
    from .config import load_config

    cfg = load_config(args.config)
    sha256 = fileio.write_trace(args.out, cfg.synth.sample_rate, pipeline.trace_channels(cfg))
    if args.json:
        print(json_text(_artifact("synth", {
            "out": args.out, "seed": cfg.synth.seed, "sha256": sha256,
            "channels": list(pipeline.TRACE_CHANNELS), "num_samples": cfg.synth.num_samples},
            cfg)))
    else:
        print(f"seed {cfg.synth.seed}")
        print(f"sha256 {sha256}")
    return 0


def _cmd_analyze(args):
    from . import fileio, pipeline
    from .config import load_config
    from .pipeline import TRACE_CHANNELS

    cfg = load_config(args.config)
    f0 = cfg.analysis_frequency
    sample_rate, channels = fileio.read_trace(args.trace)
    if not f0 < sample_rate / 2.0:  # the trace may come from a config of a lower rate
        raise UsageError(f"f0 {f0:.6g} Hz not below the trace's Nyquist {sample_rate / 2:.6g} Hz")
    for name in TRACE_CHANNELS:
        if name not in channels:
            raise UsageError(f"trace file lacks required channel {name!r}")
    # readings reads and checks its channels' blocks; a channel analyze does
    # not use is read through all the same, so every sample is checked
    digest, readings, *_ = fileio.on_two_workers(
        [(fileio.file_sha256, args.trace), (pipeline.readings, channels, sample_rate, cfg)]
        + [(_read_through, channels[name]) for name in channels if name not in TRACE_CHANNELS])
    _emit(_artifact("analysis", {"f0_hz": f0, **readings, "rbw_hz": cfg.analyzer.rbw,
                                 "vbw_hz": cfg.analyzer.vbw, "trace_sha256": digest}, cfg),
          args.out, args.json)
    return 0


def _cmd_certify(args):
    if args.vx is not None or args.vy is not None:
        if args.vx is None or args.vy is None:
            raise UsageError("--vx and --vy must be given together")
        if args.analysis is not None:
            raise UsageError("give an analysis JSON or --vx/--vy, not both")
        readings = args.vx, args.vy, None
    else:
        if args.analysis is None:
            raise UsageError("provide an analysis JSON or --vx/--vy")
        with open(args.analysis, encoding="utf-8") as handle:
            try:
                # integers read as floats, so one too large for a float reads as inf
                analysis = json.load(handle, parse_int=float, object_pairs_hook=unique_keys)
            except (ValueError, RecursionError) as exc:  # not UTF-8 text, not JSON, too deep
                raise UsageError(f"analysis JSON cannot be read: {exc}") from exc
        readings = certify.analysis_readings(analysis)
    _emit(_artifact("certify", certify.report(*readings, mode_match=args.mode_match)),
          args.out, args.json)
    return 0


def _cmd_fit(args):
    import numpy as np

    from . import fileio
    from .fit import FitProblem, fit_spectra

    freqs, amplitude, phase = fileio.read_spectrum_csv(args.spectrum)
    problem = FitProblem(frequencies=freqs, amplitude_observed=amplitude,
                         phase_observed=phase)
    result = fit_spectra(problem)
    _emit(_artifact("fit", {
        "efficiency_product": result.efficiency_product,
        "bandwidth_hz": result.bandwidth,
        "pump_ratio": result.pump_ratio,
        "residual_norm": result.residual_norm,
        "covariance": [[value if math.isfinite(value) else None for value in row]
                       for row in np.asarray(result.covariance).tolist()],
        "converged": result.converged,
        "iterations": result.iterations,
        "unidentifiable": list(result.unidentifiable),
    }), args.out, args.json)
    return 0


_COMMANDS = {
    "spectra": _cmd_spectra,
    "synth": _cmd_synth,
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "fit": _cmd_fit,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"twinbeam: error: {exc}", file=sys.stderr)
        return 1
    except TwinbeamError as exc:
        offset = getattr(exc, "byte_offset", None)
        suffix = f" (byte offset {offset})" if offset is not None else ""
        print(f"twinbeam: infeasible: {exc}{suffix}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an output too large for this machine's memory
        print(f"twinbeam: infeasible: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twinbeam: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
