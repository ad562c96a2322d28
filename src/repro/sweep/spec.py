"""Declarative sweep specifications and their machine lattice.

A :class:`SweepSpec` is a plain JSON/TOML-loadable grid over the
machine parameters the paper sweeps (issue width 1-8, branch issue
limit, cache on/off and geometry, BTB size/penalty) plus named latency
tables, the model set and the workload set.  :meth:`SweepSpec.expand`
walks the cartesian product in a fixed axis order and collapses it
into a deduplicated lattice of :class:`SweepPoint`\\ s — one per
distinct ``MachineDescription.digest()`` — so perfect-cache points do
not multiply across cache-geometry axes and the point index is a
stable, reproducible identity: point ``i`` of sweep digest ``S`` is
the same machine in every process at any ``--jobs`` level (the fuzz
runner's ``(seed, index)`` partitioning, applied to machines).

Every validation failure raises the typed
:class:`~repro.robustness.errors.SpecError` (exit 11) *before* any
digest is computed: a typo can never be silently hashed into a
never-matching cache key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from repro.engine.keys import stable_digest
from repro.machine.descriptor import (BTBConfig, CacheConfig,
                                      MachineDescription,
                                      normalize_latency_overrides)
from repro.robustness.errors import SpecError
from repro.toolchain import MODEL_NAMES

#: cache modes: "perfect" (no memory stalls) or "real" (direct-mapped
#: I/D caches with the spec's geometry axes)
CACHE_MODES = ("perfect", "real")

#: pre-dedup grid size bound — a runaway axis product fails loudly
#: instead of enqueueing a year of simulation
MAX_GRID = 4096


@dataclass(frozen=True)
class SweepPoint:
    """One machine of the lattice, with its axis coordinates."""

    index: int
    machine: MachineDescription
    #: axis name -> value, for surface grouping and reports
    axes: tuple[tuple[str, object], ...]

    def axes_dict(self) -> dict:
        return dict(self.axes)


def _int_axis(name: str, values, lo: int, hi: int) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError(f"{name} must be a non-empty list of integers",
                        field=name)
    out = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) \
                or not lo <= v <= hi:
            raise SpecError(
                f"{name} entries must be integers in [{lo}, {hi}], "
                f"got {v!r}", field=name)
        out.append(v)
    if len(set(out)) != len(out):
        raise SpecError(f"{name} has duplicate entries: {list(values)}",
                        field=name)
    return tuple(out)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over machine parameters and model set.

    All axes default to single points, so a minimal spec (just
    ``issue_widths``) sweeps exactly one dimension.  ``workloads``
    empty means every registered workload.  ``latency_sets`` maps a
    set name to latency-table overrides over the PA-7100 defaults
    (``{}`` for the stock table); names become axis values in reports.
    """

    name: str = "sweep"
    scale: float = 1.0
    max_steps: int = 20_000_000
    workloads: tuple[str, ...] = ()
    models: tuple[str, ...] = MODEL_NAMES
    issue_widths: tuple[int, ...] = (1, 2, 4, 8)
    branch_limits: tuple[int, ...] = (1,)
    caches: tuple[str, ...] = ("perfect",)
    #: real-cache geometry axes (sized for the scaled kernel workloads;
    #: see EXPERIMENTS.md on the 64K -> 1K/2K substitution)
    icache_bytes: tuple[int, ...] = (1024,)
    dcache_bytes: tuple[int, ...] = (2048,)
    cache_line_bytes: int = 64
    miss_penalties: tuple[int, ...] = (12,)
    btb_entries: tuple[int, ...] = (1024,)
    btb_penalties: tuple[int, ...] = (2,)
    #: (set name, canonical latency overrides) pairs
    latency_sets: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = \
        (("pa7100", ()),)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise SpecError("sweep name must be a non-empty string",
                            field="name")
        if not isinstance(self.scale, (int, float)) or self.scale <= 0:
            raise SpecError(f"scale must be positive, got {self.scale!r}",
                            field="scale")
        if not isinstance(self.max_steps, int) or self.max_steps <= 0:
            raise SpecError("max_steps must be a positive integer",
                            field="max_steps")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown or not self.models:
            raise SpecError(
                f"invalid models {list(self.models)!r} (expected a "
                f"non-empty subset of {list(MODEL_NAMES)})",
                field="models")
        if len(set(self.models)) != len(self.models):
            raise SpecError(f"models has duplicates: {list(self.models)}",
                            field="models")
        # Canonical model order: submissions spelling the same set
        # differently share a digest (and a single-flight slot).
        object.__setattr__(self, "models", tuple(
            m for m in MODEL_NAMES if m in set(self.models)))
        for w in self.workloads:
            from repro.workloads.base import get_workload
            try:
                get_workload(w)
            except KeyError:
                raise SpecError(f"unknown workload {w!r} (see "
                                f"`repro list`)", field="workloads") \
                    from None
        object.__setattr__(self, "issue_widths",
                           _int_axis("issue_widths", self.issue_widths,
                                     1, 16))
        object.__setattr__(self, "branch_limits",
                           _int_axis("branch_limits", self.branch_limits,
                                     1, 8))
        if not self.caches \
                or any(c not in CACHE_MODES for c in self.caches) \
                or len(set(self.caches)) != len(self.caches):
            raise SpecError(
                f"caches must be a non-empty, duplicate-free subset of "
                f"{list(CACHE_MODES)}, got {list(self.caches)!r}",
                field="caches")
        object.__setattr__(self, "icache_bytes",
                           _int_axis("icache_bytes", self.icache_bytes,
                                     64, 1 << 24))
        object.__setattr__(self, "dcache_bytes",
                           _int_axis("dcache_bytes", self.dcache_bytes,
                                     64, 1 << 24))
        if not isinstance(self.cache_line_bytes, int) \
                or not 4 <= self.cache_line_bytes <= 1024:
            raise SpecError("cache_line_bytes must be an integer in "
                            "[4, 1024]", field="cache_line_bytes")
        object.__setattr__(self, "miss_penalties",
                           _int_axis("miss_penalties",
                                     self.miss_penalties, 1, 1000))
        object.__setattr__(self, "btb_entries",
                           _int_axis("btb_entries", self.btb_entries,
                                     1, 1 << 20))
        object.__setattr__(self, "btb_penalties",
                           _int_axis("btb_penalties", self.btb_penalties,
                                     0, 100))
        if not self.latency_sets:
            raise SpecError("latency_sets must name at least one "
                            "latency table (e.g. {'pa7100': {}})",
                            field="latency_sets")
        canonical = []
        seen = set()
        for entry in self.latency_sets:
            try:
                lname, overrides = entry
            except (TypeError, ValueError):
                raise SpecError(
                    f"latency_sets entry {entry!r} is not a (name, "
                    f"overrides) pair", field="latency_sets") from None
            if not isinstance(lname, str) or not lname.strip():
                raise SpecError("latency set names must be non-empty "
                                "strings", field="latency_sets")
            if lname in seen:
                raise SpecError(f"duplicate latency set {lname!r}",
                                field="latency_sets")
            seen.add(lname)
            canonical.append((lname,
                              normalize_latency_overrides(overrides)))
        object.__setattr__(self, "latency_sets", tuple(canonical))
        grid = self.grid_size()
        if grid > MAX_GRID:
            raise SpecError(
                f"grid of {grid} combinations exceeds the {MAX_GRID} "
                f"bound — drop an axis or split the sweep",
                field="issue_widths")

    # ----- lattice ------------------------------------------------------

    def grid_size(self) -> int:
        """Pre-dedup cartesian-product size."""
        geometry = 1
        if "real" in self.caches:
            geometry = (len(self.icache_bytes) * len(self.dcache_bytes)
                        * len(self.miss_penalties))
        per_cache = {"perfect": 1, "real": geometry}
        return (sum(per_cache[c] for c in self.caches)
                * len(self.latency_sets) * len(self.btb_entries)
                * len(self.btb_penalties) * len(self.branch_limits)
                * len(self.issue_widths))

    def _geometries(self, mode: str):
        """(icache, dcache, penalty) combos for one cache mode.

        Perfect-cache machines ignore cache geometry, so the axes
        collapse to the canonical default — that is what dedups a
        perfect x {4 geometries} cross into a single lattice point.
        """
        if mode == "perfect":
            yield None, None, None
            return
        for ic in self.icache_bytes:
            for dc in self.dcache_bytes:
                for penalty in self.miss_penalties:
                    yield ic, dc, penalty

    def expand(self) -> list[SweepPoint]:
        """The deduplicated machine lattice, in stable index order.

        Axis nesting (outer to inner): latency set, cache mode, cache
        geometry, BTB entries, BTB penalty, branch limit, issue width.
        Duplicate machine digests keep their first occurrence.
        """
        points: list[SweepPoint] = []
        seen: set[str] = set()
        for lname, overrides in self.latency_sets:
            for mode in self.caches:
                for ic, dc, penalty in self._geometries(mode):
                    for entries in self.btb_entries:
                        for btb_penalty in self.btb_penalties:
                            for limit in self.branch_limits:
                                for width in self.issue_widths:
                                    m = self._machine(
                                        width, limit, mode, ic, dc,
                                        penalty, entries, btb_penalty,
                                        lname, overrides)
                                    digest = m.digest()
                                    if digest in seen:
                                        continue
                                    seen.add(digest)
                                    axes = (
                                        ("issue_width", width),
                                        ("branch_limit", limit),
                                        ("caches", mode),
                                        ("icache_bytes", ic),
                                        ("dcache_bytes", dc),
                                        ("miss_penalty", penalty),
                                        ("btb_entries", entries),
                                        ("btb_penalty", btb_penalty),
                                        ("latencies", lname),
                                    )
                                    points.append(SweepPoint(
                                        index=len(points), machine=m,
                                        axes=axes))
        return points

    def _machine(self, width, limit, mode, ic, dc, penalty, entries,
                 btb_penalty, lname, overrides) -> MachineDescription:
        name = f"w{width}.b{limit}.{mode}.{lname}"
        machine = MachineDescription(
            name=name, issue_width=width, branch_issue_limit=limit,
            btb=BTBConfig(entries=entries,
                          mispredict_penalty=btb_penalty),
            latency_overrides=overrides)
        if mode == "real":
            machine = replace(
                machine, perfect_caches=False,
                icache=CacheConfig(size_bytes=ic,
                                   line_bytes=self.cache_line_bytes,
                                   miss_penalty=penalty),
                dcache=CacheConfig(size_bytes=dc,
                                   line_bytes=self.cache_line_bytes,
                                   miss_penalty=penalty))
        return machine

    # ----- identity -----------------------------------------------------

    def sweep_digest(self) -> str:
        """Content address of the computation the sweep names.

        ``name`` is a display label and deliberately excluded: two
        differently-named but identical grids partition and dedup the
        same way.
        """
        data = self.to_dict()
        data.pop("name")
        return stable_digest("sweep-spec", data)

    # ----- wire format --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scale": self.scale,
            "max_steps": self.max_steps,
            "workloads": list(self.workloads),
            "models": list(self.models),
            "issue_widths": list(self.issue_widths),
            "branch_limits": list(self.branch_limits),
            "caches": list(self.caches),
            "icache_bytes": list(self.icache_bytes),
            "dcache_bytes": list(self.dcache_bytes),
            "cache_line_bytes": self.cache_line_bytes,
            "miss_penalties": list(self.miss_penalties),
            "btb_entries": list(self.btb_entries),
            "btb_penalties": list(self.btb_penalties),
            "latency_sets": {lname: dict(overrides)
                             for lname, overrides in self.latency_sets},
        }

    @classmethod
    def from_dict(cls, data: object) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SpecError(f"sweep spec must be a JSON object, got "
                            f"{type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown sweep spec fields: "
                            f"{', '.join(unknown)} (known: "
                            f"{', '.join(sorted(known))})")
        kwargs = dict(data)
        for key in ("workloads", "models", "caches"):
            if key in kwargs:
                value = kwargs[key]
                if not isinstance(value, (list, tuple)) \
                        or not all(isinstance(v, str) for v in value):
                    raise SpecError(f"{key} must be a list of strings",
                                    field=key)
                kwargs[key] = tuple(value)
        for key in ("issue_widths", "branch_limits", "icache_bytes",
                    "dcache_bytes", "miss_penalties", "btb_entries",
                    "btb_penalties"):
            if key in kwargs:
                value = kwargs[key]
                if not isinstance(value, (list, tuple)):
                    raise SpecError(f"{key} must be a list of integers",
                                    field=key)
                kwargs[key] = tuple(value)
        if "latency_sets" in kwargs:
            sets = kwargs["latency_sets"]
            if not isinstance(sets, dict):
                raise SpecError(
                    "latency_sets must be a table of name -> {op class: "
                    "cycles} overrides", field="latency_sets")
            kwargs["latency_sets"] = tuple(
                (str(lname), tuple(sorted(
                    (str(k), v) for k, v in overrides.items()))
                 if isinstance(overrides, dict) else overrides)
                for lname, overrides in sorted(sets.items()))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SpecError(f"malformed sweep spec: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from ``.json`` or ``.toml`` (Python 3.11+)."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SpecError(f"cannot read sweep spec {path}: {exc}") \
                from exc
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                raise SpecError(
                    f"TOML sweep specs need Python 3.11+ (no tomllib "
                    f"here) — rewrite {path} as JSON") from None
            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
                raise SpecError(f"invalid TOML in {path}: {exc}") \
                    from exc
        else:
            try:
                data = json.loads(raw)
            except ValueError as exc:
                raise SpecError(
                    f"invalid JSON in {path}: {exc} (use a .toml "
                    f"suffix for TOML specs)") from exc
        return cls.from_dict(data)
