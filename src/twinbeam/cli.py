"""Command-line front end: spectra, synth, analyze, certify, fit.

A trace file written by synth holds the four measured channels analyze
reads (pipeline.TRACE_CHANNELS): the amplitude and phase signal
photocurrents, the shot-noise reference and the electronics floor.
pipeline makes them and reads them; this module schedules that work and
handles files, flags and exit codes.  The two combinations behind the
signal channels are not stored (synth.measured_combinations returns them),
and per-beam series are not modelled.

synth and analyze use up to two threads; their output does not depend on
how many run.  synth shapes the two combinations on the calling thread
while a worker streams the channels into the trace file as float32 blocks;
analyze runs the four Welch estimates and the trace's sha256 on two
workers.

Exit codes: 0 success (an entanglement verdict of "separable" is data, not
an error), 1 usage/validation problems, 2 data or configuration
infeasibility.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import dsp, fileio, model, pipeline
from .config import SchemaError, load_config
from .errors import TwinbeamError
from .fit import FitProblem, fit_spectra
from .pipeline import TRACE_CHANNELS


class UsageError(TwinbeamError):
    """Bad command-line arguments or value ranges; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="twinbeam", description=__doc__)
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
    synth_cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    synth_cmd.add_argument("--out", required=True)
    synth_cmd.add_argument("--json", action="store_true")

    analyze = sub.add_parser("analyze", help="spectrum-analyzer readings from a trace file")
    analyze.add_argument("trace")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--f0", type=float, default=None,
                         help="readout frequency (default: config analysis frequency)")
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--json", action="store_true")

    certify = sub.add_parser("certify", help="correct readings and apply the Duan test")
    certify.add_argument("analysis", nargs="?", default=None,
                         help="analysis JSON from the analyze step")
    certify.add_argument("--vx", type=float, default=None,
                         help="already-corrected amplitude-difference variance (linear)")
    certify.add_argument("--vy", type=float, default=None,
                         help="already-corrected phase-sum variance (linear)")
    certify.add_argument("--enl-db", type=float, default=None,
                         help="electronics floor in dB relative to the SNL (negative)")
    certify.add_argument("--mode-match", type=float, default=None,
                         help="de-embed this mode-matching efficiency from the phase channel")
    certify.add_argument("--out", default=None)
    certify.add_argument("--json", action="store_true")

    fit_cmd = sub.add_parser("fit", help="fit model parameters to a spectrum CSV")
    fit_cmd.add_argument("spectrum")
    fit_cmd.add_argument("--out", default=None)
    fit_cmd.add_argument("--json", action="store_true")
    return parser


def _emit(payload, out_path, as_json):
    if out_path:
        fileio.write_json(out_path, payload)
    if as_json or not out_path:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _cmd_spectra(args):
    cfg = load_config(args.config)
    if not 0 <= args.f_min <= args.f_max < math.inf or args.num_points < 1:  # rejects nan too
        raise UsageError(
            f"invalid frequency range [{args.f_min}, {args.f_max}] / {args.num_points} points")
    if args.f_min == args.f_max:
        freqs = np.array([args.f_min])
    else:
        freqs = np.linspace(args.f_min, args.f_max, args.num_points)
    s_i = np.atleast_1d(model.intensity_diff_spectrum(cfg.nopo, freqs))
    s_p = np.atleast_1d(model.phase_sum_spectrum(cfg.nopo, freqs))
    fileio.write_spectrum_csv(args.out, freqs, amplitude=s_i, phase=s_p)
    if args.json:
        print(json.dumps({"out": args.out, "num_points": len(freqs),
                          "config_hash": cfg.hash}, sort_keys=True, allow_nan=False))
    return 0


def _write_channels(cfg, writer):
    """Write every trace channel through writer, on two threads.

    The calling thread shapes the coloured combinations, one after the
    other: each inverse FFT holds about 130 MiB at 2^22 samples, so two at
    once would raise the peak.  A worker thread streams each channel's
    blocks into the trace as soon as the channel can be made.  A failure on
    either thread cancels what is queued and is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: only synth and analyze use it

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        pending = []
        for name, stream in pipeline.trace_channels(cfg):
            pending.append(pool.submit(writer.write_channel, name, stream.blocks()))
            del stream  # the worker's task holds it until the channel is written
            for future in pending:
                if future.done():
                    future.result()  # raise a worker's failure before shaping more
        for future in pending:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_synth(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, seed=args.seed))
    with fileio.trace_writer(args.out, cfg.synth.sample_rate, TRACE_CHANNELS,
                             cfg.synth.num_samples) as writer:
        _write_channels(cfg, writer)
    summary = {"out": args.out, "seed": cfg.synth.seed, "sha256": writer.sha256,
               "channels": list(TRACE_CHANNELS), "num_samples": cfg.synth.num_samples,
               "config_hash": cfg.hash}
    if args.json:
        print(json.dumps(summary, sort_keys=True, allow_nan=False))
    else:
        print(f"seed {cfg.synth.seed}")
        print(f"sha256 {writer.sha256}")
    return 0


def _cmd_analyze(args):
    cfg = load_config(args.config)
    f0 = args.f0 if args.f0 is not None else cfg.interferometer.analysis_frequency
    trace = fileio.read_trace(args.trace)
    sample_rate, channels = trace
    if not 0 < f0 < sample_rate / 2.0:
        raise UsageError(f"f0 {f0:.6g} Hz outside (0, Nyquist {sample_rate / 2:.6g} Hz)")
    for name in TRACE_CHANNELS:
        if name not in channels:
            raise UsageError(f"trace file lacks required channel {name!r}")
    settings = dsp.AnalyzerSettings(**cfg.analyzer)
    from concurrent.futures import ThreadPoolExecutor  # here: only synth and analyze use it

    with ThreadPoolExecutor(max_workers=2) as pool:
        digest = pool.submit(lambda: trace.sha256)
        futures = {name: pool.submit(dsp.welch_psd, channels[name], sample_rate, settings)
                   for name in TRACE_CHANNELS}
        estimates = {name: future.result() for name, future in futures.items()}
        digest.result()
    payload = {
        "f0_hz": f0,
        **pipeline.readings(estimates, f0),
        "rbw_hz": settings.rbw,
        "vbw_hz": settings.vbw,
        "config_hash": cfg.hash,
        "trace_sha256": trace.sha256,
    }
    _emit(payload, args.out, args.json)
    return 0


def _read_analysis(path):
    """(amplitude_db, phase_db, enl_db) from an analysis JSON written by analyze.

    Each reading must be a number or null.  A null, NaN or overflowing
    signal reading gives a non-finite variance, which the Duan test rejects
    as infeasible; a null enl_db means there is no floor to correct for.
    """
    with open(path) as handle:
        try:
            # integers read as floats, so one too large for a float reads as inf
            analysis = json.load(handle, parse_int=float)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise UsageError(f"analysis JSON cannot be read: {exc}") from exc
    if not isinstance(analysis, dict):
        raise UsageError("analysis JSON must be an object")
    for key in ("amplitude_db", "phase_db"):
        if key not in analysis:
            raise UsageError(f"analysis JSON lacks {key!r}")
    keys = ("amplitude_db", "phase_db", "enl_db")
    for key in keys:
        value = analysis.get(key)
        if value is not None and not isinstance(value, float):
            raise UsageError(f"analysis JSON {key} must be a number or null, got {value!r}")
    return tuple(analysis.get(key) for key in keys)


def _cmd_certify(args):
    corrections = []

    def record(channel, name, before, after):
        corrections.append({"channel": channel, "correction": name,
                            "before": before, "after": after})

    if args.vx is not None or args.vy is not None:
        if args.vx is None or args.vy is None:
            raise UsageError("--vx and --vy must be given together")
        amp, phase = args.vx, args.vy
        raw = {"amplitude": amp, "phase": phase}
    else:
        if args.analysis is None:
            raise UsageError("provide an analysis JSON or --vx/--vy")
        amp_db, phase_db, enl_db = _read_analysis(args.analysis)
        amp, phase = model.from_db(amp_db), model.from_db(phase_db)
        raw = {"amplitude": amp, "phase": phase}
        if args.enl_db is not None:
            enl_db = args.enl_db
        if enl_db is not None:
            enl = model.from_db(enl_db)
            corrected = model.correct_for_electronic_noise(amp, enl)
            record("amplitude", "electronic_noise", amp, corrected)
            amp = corrected
            corrected = model.correct_for_electronic_noise(phase, enl)
            record("phase", "electronic_noise", phase, corrected)
            phase = corrected

    if args.mode_match is not None:
        corrected = model.remove_mode_match_penalty(phase, args.mode_match)
        record("phase", "mode_match", phase, corrected)
        phase = corrected

    verdict = model.duan_certify(model.QuadratureVariancePair(amp, phase))
    payload = {
        "raw": raw,
        "corrections": corrections,
        "amplitude_diff_variance": amp,
        "phase_sum_variance": phase,
        "duan_sum": verdict.total,
        "entangled": verdict.entangled,
        "snl_bound": 2.0,
    }
    _emit(payload, args.out, args.json)
    return 0


def _cmd_fit(args):
    freqs, amplitude, phase = fileio.read_spectrum_csv(args.spectrum)
    problem = FitProblem(frequencies=freqs, amplitude_observed=amplitude,
                         phase_observed=phase)
    result = fit_spectra(problem)
    payload = {
        "efficiency_product": result.efficiency_product,
        "bandwidth_hz": result.bandwidth,
        "pump_ratio": result.pump_ratio,
        "residual_norm": result.residual_norm,
        "covariance": [[value if math.isfinite(value) else None for value in row]
                       for row in np.asarray(result.covariance).tolist()],
        "converged": result.converged,
        "iterations": result.iterations,
        "unidentifiable": list(result.unidentifiable),
    }
    _emit(payload, args.out, args.json)
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
    except (UsageError, SchemaError) as exc:
        print(f"twinbeam: error: {exc}", file=sys.stderr)
        return 1
    except TwinbeamError as exc:
        offset = getattr(exc, "byte_offset", None)
        suffix = f" (byte offset {offset})" if offset is not None else ""
        print(f"twinbeam: infeasible: {exc}{suffix}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twinbeam: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
