"""Content keys for the persistent artifact store.

Every key is a SHA-256 digest over a ``repr``-canonicalized tuple of the
artifact's inputs, salted with the package version — so a new release
never reads artifacts produced by code that may have computed them
differently, and two runs of the same code over the same inputs always
address the same entry.

The dependency chain mirrors the pipeline: each stage key embeds the key
material of the stages it consumes, so invalidation is automatic — edit
the program and every downstream entry changes address; change only a
search parameter and the metadata/graph entries keep hitting.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cudalite import ast_nodes as ast
    from ..gpu.device import DeviceSpec
    from ..search.params import GAParams


def _version_salt() -> str:
    from .. import __version__

    return f"repro/{__version__}"


def digest(*parts: object) -> str:
    """SHA-256 over the canonical encoding of ``parts`` (version-salted)."""
    payload = repr((_version_salt(),) + parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def checksum_payload(payload: dict) -> str:
    """Integrity checksum of a store payload (canonical JSON encoding)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def program_fingerprint(program: "ast.Program") -> str:
    """Content digest of a program (via its canonical unparsed text)."""
    from ..cudalite.unparser import unparse

    return hashlib.sha256(unparse(program).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=64)
def device_fingerprint(device: "DeviceSpec") -> str:
    """Content digest of a device model (every spec field participates).

    Memoised per (frozen, hashable) spec: a warm run asks for it once per
    stage key."""
    return digest("device", tuple(sorted(asdict(device).items())))


def params_fingerprint(params: "GAParams") -> str:
    """Content digest of a full GA parameter set (includes the seed)."""
    return digest("ga-params", repr(params))


# ----------------------------------------------------------- stage keys


def metadata_key(program_fp: str, device_fp: str) -> str:
    return digest("metadata", program_fp, device_fp)


def targets_key(
    program_fp: str,
    device_fp: str,
    boundary_fraction: float,
    manual_exclusions: Tuple[str, ...],
    disable_filtering: bool,
) -> str:
    return digest(
        "targets",
        program_fp,
        device_fp,
        boundary_fraction,
        tuple(sorted(manual_exclusions)),
        bool(disable_filtering),
    )


def graphs_key(targets_key_: str) -> str:
    """Graphs depend on the program+metadata+filter outcome — all of which
    the targets key already covers."""
    return digest("graphs", targets_key_)


def search_key(problem_fp: str, device_fp: str, params_fp: str) -> str:
    """Exact search identity: reuse is only sound when every input that
    can steer the GGA — problem, device, parameters *and seed* — matches."""
    return digest("search", problem_fp, device_fp, params_fp)


def population_key(
    problem_fp: str, device_fp: str, objective: str, penalties_repr: str
) -> str:
    """Warm-start identity: a population transfers across runs whose
    fitness landscape matches (problem/device/objective/penalties), even
    when the seed or generation budget differs."""
    return digest("population", problem_fp, device_fp, objective, penalties_repr)


def verified_group_key(
    fused_text: str,
    launch_sig: Tuple[object, ...],
    constituents_sig: Tuple[object, ...],
    shapes_sig: Tuple[object, ...],
    compare: Tuple[str, ...],
    verify_seed: int,
) -> str:
    """Identity of one verified fused group.

    Keyed purely on group-level content (generated kernel text, launch
    configuration, constituent kernels/bindings, the shapes of every
    array touched, and the verification config), *not* on the program
    fingerprint — so a verified group survives unrelated edits elsewhere
    in the application (incremental re-verification)."""
    return digest(
        "verified-group",
        fused_text,
        launch_sig,
        constituents_sig,
        shapes_sig,
        tuple(compare),
        verify_seed,
    )


def verified_program_key(original_fp: str, transformed_text: str) -> str:
    """Identity of one whole-program verification: the original by its
    fingerprint (the run already holds it), the output by its text."""
    return digest("verified-program", original_fp, transformed_text)


def service_request_key(program_fp: str, config_digest: str) -> str:
    """Identity of one transformation request, as served by ``repro.service``.

    Keyed on the program content and the *semantic* configuration digest
    (output paths and store wiring excluded — see
    :func:`repro.observability.ledger.config_digest`), so two clients
    asking for the same transformation deduplicate regardless of where
    each wants its artifacts written."""
    return digest("service-request", program_fp, config_digest)


def tuning_key(
    device_fp: str,
    block: Tuple[int, int, int],
    smem_per_block: int,
    regs_per_thread: int,
    dims: int,
) -> str:
    """Identity of one thread-block tuning decision (kernel-name-free)."""
    return digest("tuning", device_fp, block, smem_per_block, regs_per_thread, dims)
