"""Trace generation front-end: run programs / models to a length budget.

:func:`program_trace` executes a toy-machine program repeatedly (fresh
data each run, like re-invoking a UNIX utility) until the requested
reference count is reached.  :func:`synthetic_trace` drives the
statistical model.  Both return word-aligned traces of exactly the
requested length, ready for simulation.
"""

from __future__ import annotations

import inspect
from typing import Optional

from repro.errors import ConfigurationError, MachineError
from repro.trace.record import Trace
from repro.workloads.assembler import AssembledProgram, assemble
from repro.workloads.machine import Machine
from repro.workloads.programs import PROGRAMS
from repro.workloads.synthetic import SyntheticProfile, generate_synthetic

__all__ = ["assemble_program", "program_trace", "synthetic_trace"]

_MAX_RESTARTS = 200


def assemble_program(
    name: str, word_size: int, seed: int = 0, **params
) -> AssembledProgram:
    """Build and assemble one bundled program.

    ``seed`` reaches the program's builder only when the builder takes
    one; ``params`` are forwarded to it unchanged.

    Raises:
        ConfigurationError: For an unknown program.
    """
    if name not in PROGRAMS:
        raise ConfigurationError(
            f"unknown program {name!r}; choose from {sorted(PROGRAMS)}"
        )
    builder = PROGRAMS[name]
    if "seed" in inspect.signature(builder).parameters:
        params["seed"] = seed
    return assemble(builder(**params).source, word_size=word_size)


def program_trace(
    program: str,
    length: int,
    word_size: int = 2,
    seed: int = 0,
    name: str = "",
    **params,
) -> Trace:
    """Generate a trace by executing a workload program.

    The program is run to completion; if its trace is shorter than
    ``length`` it is re-run with a stepped seed (fresh data, same code)
    and the traces concatenated — modelling repeated invocations of the
    same utility.  The result is truncated to exactly ``length``.

    Args:
        program: A key of :data:`repro.workloads.programs.PROGRAMS`.
        length: Number of references wanted.
        word_size: Data-path width (2 or 4 bytes).
        seed: Base seed for the program's data.
        name: Trace name; defaults to the program name.
        **params: Forwarded to the program's builder (e.g. ``n=500``).

    Raises:
        ConfigurationError: For an unknown program or an unproductive
            one (a run that emits no references).
    """
    pieces = []
    total = 0
    for restart in range(_MAX_RESTARTS):
        if total >= length:
            break
        machine = Machine(
            assemble_program(program, word_size, seed + restart, **params),
            trace_name=name or program,
        )
        try:
            result = machine.run(max_refs=length - total)
        except MachineError as exc:
            # Re-raise with the provenance a failing sweep needs: which
            # program, which invocation, which seed.
            raise MachineError(
                f"program {program!r} (trace {name or program!r}, "
                f"restart {restart}, seed {seed + restart}): "
                f"{exc}",
                steps=exc.steps,
            ) from exc
        if len(result.trace) == 0:
            raise ConfigurationError(
                f"program {program!r} produced an empty trace"
            )
        pieces.append(result.trace)
        total += len(result.trace)
    else:
        raise ConfigurationError(
            f"program {program!r} needed more than {_MAX_RESTARTS} restarts "
            f"to produce {length} references"
        )
    trace = pieces[0]
    for piece in pieces[1:]:
        trace = trace + piece
    trace.name = name or program
    return trace[:length]


def synthetic_trace(
    profile: SyntheticProfile,
    length: int,
    word_size: int = 2,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Generate a trace from the statistical locality model."""
    return generate_synthetic(
        profile, length, word_size=word_size, seed=seed, name=name or "synthetic"
    )
