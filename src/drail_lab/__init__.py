"""Desk-scale adversarial imitation learning lab.

A diffusion-model discriminator supplies smooth rewards to a PPO-trained
policy; GAIL- and DiffAIL-style discriminators plus behavior cloning serve
as baselines. Everything runs on plain numpy with explicit seeds.
"""

import ctypes
import platform

__version__ = "0.1.0"

# Fixed glibc heap thresholds (M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD
# 256 MiB): with the adaptive ones a discriminator update's 2 MB
# activations and a scoring block's 1 MB ones went back to the kernel after
# each call, or not, depending on where unrelated small blocks lay, and
# were faulted in again on the next.
if platform.libc_ver()[0] == "glibc":
    ctypes.CDLL(None).mallopt(-3, 32 << 20)
    ctypes.CDLL(None).mallopt(-1, 256 << 20)
