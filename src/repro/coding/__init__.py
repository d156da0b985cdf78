"""Erasure codecs and pluggable coding schemes (XOR, RDP, Reed–Solomon,
replication).

See :mod:`repro.coding.parity` for the standalone XOR/RDP codecs,
:mod:`repro.coding.schemes` for the :class:`CodingScheme` interface and
``docs/coding.md`` for the scheme matrix and custom-scheme registration.
"""

from .gf256 import (
    GF_EXP,
    GF_LOG,
    MUL_TABLE,
    cauchy_matrix,
    gf_div,
    gf_inv,
    gf_matinv,
    gf_matvec,
    gf_mul,
    gf_pair_tables,
)
from .parity import ParityCodeError, RDPCode, XorCode, smallest_prime_at_least
from .schemes import (
    CodingScheme,
    ReedSolomonScheme,
    ReplicationScheme,
    RDPScheme,
    XorScheme,
    available_schemes,
    get_scheme,
    parse_scheme,
    register_scheme,
    shard_key,
    shard_name,
    shard_suffix,
)

__all__ = [
    "GF_EXP",
    "GF_LOG",
    "MUL_TABLE",
    "cauchy_matrix",
    "gf_div",
    "gf_inv",
    "gf_matinv",
    "gf_matvec",
    "gf_mul",
    "gf_pair_tables",
    "CodingScheme",
    "ReedSolomonScheme",
    "ReplicationScheme",
    "RDPScheme",
    "XorScheme",
    "available_schemes",
    "get_scheme",
    "parse_scheme",
    "register_scheme",
    "shard_key",
    "shard_name",
    "shard_suffix",
    "ParityCodeError",
    "RDPCode",
    "XorCode",
    "smallest_prime_at_least",
]
