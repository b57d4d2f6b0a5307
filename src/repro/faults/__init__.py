"""Fault injection: bit-flip models, injectors and campaign machinery.

The paper's evaluation is overhead-focused but its claims rest on the
codes' guarantees (SED detects odd flips; SECDED corrects 1/detects 2;
CRC32C handles up to 5 within a HD-6 codeword).  This package provides
the harness that validates those guarantees empirically: pick a fault
model, spray flips into protected structures, classify every outcome as
corrected / detected / silent and aggregate campaign statistics —
serially, or sharded across a process pool
(:mod:`repro.faults.sharding`, ``python -m repro.faults.campaign``).

Exports resolve lazily (PEP 562) so ``python -m repro.faults.campaign``
does not double-import the campaign module through the package.
"""

_EXPORTS = {
    "PoissonProcess": "repro.faults.process",
    "FaultyRunReport": "repro.faults.process",
    "faulty_solve": "repro.faults.process",
    "FaultModel": "repro.faults.models",
    "SingleBitFlip": "repro.faults.models",
    "MultiBitFlip": "repro.faults.models",
    "BurstError": "repro.faults.models",
    "StuckBits": "repro.faults.models",
    "FaultSpec": "repro.faults.models",
    "Region": "repro.faults.injector",
    "inject_into_matrix": "repro.faults.injector",
    "inject_into_vector": "repro.faults.injector",
    "flip_array_bit": "repro.faults.injector",
    "CampaignResult": "repro.faults.campaign",
    "run_matrix_campaign": "repro.faults.campaign",
    "run_vector_campaign": "repro.faults.campaign",
    "run_solver_campaign": "repro.faults.campaign",
    "run_poisson_campaign": "repro.faults.campaign",
    "CampaignTask": "repro.faults.sharding",
    "Shard": "repro.faults.sharding",
    "plan_shards": "repro.faults.sharding",
    "run_sharded_campaign": "repro.faults.sharding",
    "merge_records": "repro.faults.sharding",
    "merge_jsonl": "repro.faults.sharding",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
