"""Strict-schema run configuration shared by the CLI subcommands.

The config is a versioned JSON document; unknown keys are rejected so a
typo can never silently fall back to a default.  Schema problems raise
SchemaError (usage-class failure); values that describe an impossible
chain raise ConfigurationError or DomainError (infeasibility-class).
"""

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigurationError, TwinbeamError
from .model import InterferometerConfig, NopoParams, arm_length_difference
from .synth import DetectionChain, SynthConfig

CONFIG_VERSION = "twinbeam-config/2"


class SchemaError(TwinbeamError):
    """The config document violates the strict schema."""


_CHANNEL_KEYS = {"mode_match": float, "excess_noise": float}

_SCHEMA = {
    "version": str,
    "nopo": {
        "transmission": float,
        "intracavity_loss": float,
        "cavity_bandwidth_hz": float,
        "pump_power": float,
        "threshold_power": float,
        "detection_efficiency": float,
    },
    "synth": {
        "sample_rate_hz": float,
        "num_samples": int,
        "seed": int,
    },
    "chain": {
        "enl": float,
        "amplitude": _CHANNEL_KEYS,
        "phase": _CHANNEL_KEYS,
    },
    "analyzer": {
        "rbw_hz": float,
        "vbw_hz": float,
        "window": (str, None),
        "center_frequency_hz": (float, None),
        "span_hz": (float, None),
    },
    "interferometer": {
        "analysis_frequency_hz": float,
        "arm_length_difference_m": (float, None),
        "dc_phase_rad": (float, None),
        "theta_tol": (float, None),
        "phi_tol": (float, None),
    },
}


def _check_node(node, schema, path):
    if not isinstance(node, dict):
        raise SchemaError(f"{path or 'config'} must be a JSON object")
    unknown = set(node) - set(schema)
    if unknown:
        raise SchemaError(f"unknown key(s) {sorted(unknown)} under {path or 'config root'}")
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        optional = isinstance(spec, tuple)
        if key not in node or node[key] is None:
            if optional:
                continue
            raise SchemaError(f"missing required key {where}")
        value = node[key]
        expected = spec[0] if optional else spec
        if isinstance(expected, dict):
            _check_node(value, expected, where)
        elif expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{where} must be a number, got {type(value).__name__}")
            if not math.isfinite(value):
                raise SchemaError(f"{where} must be finite")
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"{where} must be an integer, got {type(value).__name__}")
        elif not isinstance(value, expected):
            raise SchemaError(f"{where} must be {expected.__name__}, got {type(value).__name__}")


def config_hash(document):
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: physics, synthesis, chains, analyzer, geometry."""
    nopo: NopoParams
    synth: SynthConfig
    enl: float
    amplitude_chain: DetectionChain
    phase_chain: DetectionChain
    analyzer: dict
    interferometer: InterferometerConfig
    hash: str


def parse_config(document):
    if not isinstance(document, dict):
        raise SchemaError("config root must be a JSON object")
    if document.get("version") == "twinbeam-config/1":
        raise SchemaError(
            "config version 'twinbeam-config/1' is retired: delete synth.conjugate_mode, "
            "synth.conjugate_excess and interferometer.winding_integer (they changed no "
            f"output) and set version to {CONFIG_VERSION!r}")
    if document.get("version") != CONFIG_VERSION:
        raise SchemaError(
            f"config version must be {CONFIG_VERSION!r}, got {document.get('version')!r}")
    _check_node(document, _SCHEMA, "")

    nopo = document["nopo"]
    params = NopoParams(
        transmission=nopo["transmission"],
        intracavity_loss=nopo["intracavity_loss"],
        cavity_bandwidth=nopo["cavity_bandwidth_hz"],
        pump_power=nopo["pump_power"],
        threshold_power=nopo["threshold_power"],
        detection_efficiency=nopo["detection_efficiency"],
    )

    synth_doc = document["synth"]
    synth_cfg = SynthConfig(
        sample_rate=synth_doc["sample_rate_hz"],
        num_samples=synth_doc["num_samples"],
        seed=synth_doc["seed"],
    )

    chain_doc = document["chain"]
    enl = chain_doc["enl"]
    if not 0 <= enl < 1:
        raise ConfigurationError(f"chain.enl must be in [0, 1), got {enl}")

    def channel_chain(doc):
        return DetectionChain(mode_match=doc["mode_match"], enl=enl,
                              excess_noise=doc["excess_noise"])

    ana = document["analyzer"]
    analyzer = {
        "rbw": ana["rbw_hz"],
        "vbw": ana["vbw_hz"],
        "window": ana.get("window") or "hann",
        "center_frequency": ana.get("center_frequency_hz"),
        "span": ana.get("span_hz"),
    }

    ifc_doc = document["interferometer"]
    f0 = ifc_doc["analysis_frequency_hz"]
    delta_l = ifc_doc.get("arm_length_difference_m")
    if delta_l is None:
        delta_l = arm_length_difference(f0)
    ifc_kwargs = {}
    if ifc_doc.get("dc_phase_rad") is not None:
        ifc_kwargs["dc_phase"] = ifc_doc["dc_phase_rad"]
    if ifc_doc.get("theta_tol") is not None:
        ifc_kwargs["theta_tol"] = ifc_doc["theta_tol"]
    if ifc_doc.get("phi_tol") is not None:
        ifc_kwargs["phi_tol"] = ifc_doc["phi_tol"]
    interferometer = InterferometerConfig(
        analysis_frequency=f0, arm_length_difference=delta_l, **ifc_kwargs)

    return RunConfig(
        nopo=params,
        synth=synth_cfg,
        enl=enl,
        amplitude_chain=channel_chain(chain_doc["amplitude"]),
        phase_chain=channel_chain(chain_doc["phase"]),
        analyzer=analyzer,
        interferometer=interferometer,
        hash=config_hash(document),
    )


def load_config(path):
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return parse_config(document)
