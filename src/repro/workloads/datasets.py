"""Dataset generators.

The paper says Globus GridFTP "is optimized to handle various types of
datasets from a single, huge file to datasets comprising lots of small
files" (Section II.A), and motivates with Earth System Grid (climate)
and LHC (high-energy physics) workloads.  These generators produce those
shapes deterministically: a list of :class:`FileSpec` (path, size,
content seed) plus a helper to materialize them into a storage backend.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.storage.data import LiteralData, SyntheticData
from repro.storage.dsi import DataStorageInterface
from repro.util.units import GB, KB, MB

#: files at or below this size carry literal bytes (full integrity checks);
#: larger files are synthetic (see repro.storage.data)
LITERAL_THRESHOLD = 4 * MB


@dataclass(frozen=True)
class FileSpec:
    """One file of a workload."""

    path: str
    size: int
    seed: int

    def make_data(self):
        """Content object for this spec (literal below the threshold).

        Literal bytes come from :class:`random.Random` seeded with the
        spec's seed, so the same spec always yields the same content.
        """
        if self.size <= LITERAL_THRESHOLD:
            return LiteralData(random.Random(self.seed).randbytes(self.size))
        return SyntheticData(seed=self.seed, length=self.size)


def single_huge_file(size: int = 100 * GB, directory: str = "/data", seed: int = 1) -> list[FileSpec]:
    """The bulk-transfer workload: one multi-gigabyte (or TB) file."""
    return [FileSpec(path=f"{directory}/huge.dat", size=size, seed=seed)]


def lots_of_small_files(
    count: int = 5000,
    size: int = 100 * KB,
    directory: str = "/data/small",
    seed: int = 2,
) -> list[FileSpec]:
    """The LOSF workload: many identically-small files."""
    return [
        FileSpec(path=f"{directory}/f{i:06d}.dat", size=size, seed=seed * 1_000_003 + i)
        for i in range(count)
    ]


def climate_mix(
    count: int = 200, directory: str = "/data/esg", seed: int = 3
) -> list[FileSpec]:
    """An Earth System Grid-ish mix: lognormal sizes around ~200 MB.

    ESG datasets (paper ref [12]) are dominated by mid-size NetCDF files
    with a long tail.
    """
    rng = random.Random(seed)
    mu = math.log(200 * MB)
    sizes = [
        int(min(max(rng.lognormvariate(mu, 1.0), 1 * MB), 8 * GB))
        for _ in range(count)
    ]
    return [
        FileSpec(path=f"{directory}/cmip.{i:04d}.nc", size=s, seed=seed * 7_000_003 + i)
        for i, s in enumerate(sizes)
    ]


def hep_mix(count: int = 100, directory: str = "/data/lhc", seed: int = 4) -> list[FileSpec]:
    """An LHC-ish mix: ~2 GB event files with modest spread."""
    rng = random.Random(seed)
    sizes = [
        int(min(max(rng.gauss(2 * GB, 512 * MB), 256 * MB), 8 * GB))
        for _ in range(count)
    ]
    return [
        FileSpec(path=f"{directory}/run.{i:05d}.root", size=s, seed=seed * 9_000_017 + i)
        for i, s in enumerate(sizes)
    ]


def total_bytes(specs: list[FileSpec]) -> int:
    """Sum of file sizes."""
    return sum(s.size for s in specs)


def materialize(specs: list[FileSpec], storage: DataStorageInterface, uid: int = 0) -> None:
    """Create every file of a workload in a storage backend."""
    for spec in specs:
        write = getattr(storage, "write_file", None)
        if write is None:
            raise TypeError(f"backend {storage.name} lacks write_file")
        write(spec.path, spec.make_data(), uid=uid)
