// Per-process ISA dispatch for the lockstep kernels (internal to linalg).
//
// HPRS_TARGET_CLONES builds a function twice -- for avx2 and for the
// baseline -- and picks the widest clone the CPU supports via ifunc.  Only
// plain mulpd/addpd widen: the avx2 clone has no FMA, so every lane performs
// the same IEEE operations as the default clone and results stay
// bit-identical across dispatch targets.
//
// Disabled under TSan: the loader runs the ifunc resolver while applying
// IRELATIVE relocations, before .preinit_array has called __tsan_init, and
// GCC instruments the generated resolver -- its __tsan_func_entry prologue
// then dereferences the not-yet-initialized thread state and the binary
// segfaults before main.  The clones are bit-identical, so falling back to
// the default kernel only changes instrumented-run speed.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define HPRS_TARGET_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define HPRS_TARGET_CLONES
#endif
