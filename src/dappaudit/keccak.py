"""Keccak-256 (original padding, as used by EVM tooling).

hashlib's sha3_256 applies the final-standard 0x06 domain byte and yields
different digests, so the permutation is implemented here.  The only
consumer is storage-string decoding (data lives at keccak256(slot)).
"""
from __future__ import annotations

_MASK = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets indexed [x][y].
_ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


# rho and pi as one move: lane `src`, rotated left by `rot`, lands in `dst`.
_RHO_PI = tuple(
    (x + 5 * y, y + 5 * ((2 * x + 3 * y) % 5), _ROTATIONS[x][y])
    for x in range(5)
    for y in range(5)
)


def _keccak_f(state: list[int]) -> None:
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        # theta, its column parities applied on the way through rho + pi
        c0, c1, c2, c3, c4 = (state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15]
                              ^ state[x + 20] for x in range(5))
        d = (c4 ^ ((c1 << 1 | c1 >> 63) & _MASK), c0 ^ ((c2 << 1 | c2 >> 63) & _MASK),
             c1 ^ ((c3 << 1 | c3 >> 63) & _MASK), c2 ^ ((c4 << 1 | c4 >> 63) & _MASK),
             c3 ^ ((c0 << 1 | c0 >> 63) & _MASK))
        for src, dst, rot in _RHO_PI:
            v = state[src] ^ d[src % 5]
            b[dst] = (v << rot | v >> (64 - rot)) & _MASK
        # chi, one row of five lanes at a time
        for y in range(0, 25, 5):
            b0, b1, b2, b3, b4 = b[y : y + 5]
            state[y] = b0 ^ (~b1 & b2)
            state[y + 1] = b1 ^ (~b2 & b3)
            state[y + 2] = b2 ^ (~b3 & b4)
            state[y + 3] = b3 ^ (~b4 & b0)
            state[y + 4] = b4 ^ (~b0 & b1)
        # iota
        state[0] ^= rc


def keccak_256(data: bytes) -> bytes:
    rate = 136  # bytes; capacity 512 bits
    state = [0] * 25
    padded = bytearray(data) + bytes(rate - len(data) % rate)
    padded[len(data)] ^= 0x01  # original keccak domain bit
    padded[-1] ^= 0x80
    for off in range(0, len(padded), rate):
        for i in range(off, off + rate, 8):
            state[(i - off) // 8] ^= int.from_bytes(padded[i : i + 8], "little")
        _keccak_f(state)
    # 32 bytes < rate, one squeeze suffices
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])
