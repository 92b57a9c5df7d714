"""Background file-system activity of the guest operating system.

Figure 4 of the paper observes that even an application that saves only its
own checkpoint file produces disk snapshots that are a few MB larger than
that file: the guest OS writes configuration files and logs as it boots.
The model writes that boot-time noise only, once per deployed guest and
deterministically, so that snapshot-size accounting reproduces the fixed
overhead (and its dependence on snapshot granularity: ~7 MB at qcow2's 64 KiB
clusters vs ~13 MB at BlobCR's 256 KiB blocks).  Log appends between
checkpoints are not modelled.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.guest.filesystem import GuestFileSystem
from repro.util.bytesource import SyntheticBytes
from repro.util.config import CheckpointSpec
from repro.util.rng import make_rng

#: paths the guest OS touches at boot (a representative subset of a Debian boot)
_BOOT_PATHS = [
    "/etc/hostname",
    "/etc/resolv.conf",
    "/etc/network/interfaces",
    "/etc/ssh/ssh_host_rsa_key",
    "/var/lib/dhcp/dhclient.leases",
    "/var/run/utmp",
    "/var/log/boot.log",
    "/var/log/dmesg",
    "/var/log/syslog",
    "/var/log/auth.log",
    "/var/log/daemon.log",
    "/var/lib/urandom/random-seed",
]


def _noise_path(index: int) -> str:
    if index < len(_BOOT_PATHS):
        return _BOOT_PATHS[index]
    return f"/var/cache/boot/fragment-{index:03d}"


@lru_cache(maxsize=1024)
def _boot_plan(instance_id: str, files: int, total: int) -> Tuple[SyntheticBytes, ...]:
    """The content of each boot-noise file, in file order: a pure function of
    its arguments, so it is drawn once per key and shared by every boot."""
    rng = make_rng("os-noise", instance_id)
    # Sizes follow a skewed distribution: a few large logs, many small files.
    weights = rng.pareto(1.5, size=files) + 0.2
    weights = weights / weights.sum()
    return tuple(
        SyntheticBytes(("os-noise", instance_id, i), max(256, int(total * weights[i])))
        for i in range(files)
    )


def write_boot_noise(fs: GuestFileSystem, spec: CheckpointSpec, instance_id: str) -> int:
    """Write the boot-time OS noise for one instance; returns bytes written.

    The total volume is ``spec.os_noise_bytes`` spread over
    ``spec.os_noise_files`` files at scattered locations so that it dirties
    many distinct disk blocks (granularity matters for snapshot size).
    """
    plan = _boot_plan(instance_id, max(1, spec.os_noise_files), spec.os_noise_bytes)
    for index, content in enumerate(plan):
        fs.write_file(_noise_path(index), content)
    fs.sync()
    return sum(content.size for content in plan)

