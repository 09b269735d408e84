/**
 * @file
 * Clang thread-safety-analysis attribute macros (no-ops on GCC and
 * MSVC). The `QC_` spellings follow the canonical set from the
 * clang Thread Safety Analysis documentation; building with clang
 * turns every annotated invariant in this codebase into a
 * compile-time check (`-Wthread-safety`, an error under
 * `-DQC_WERROR=ON` — the CI clang lanes).
 *
 * libstdc++'s mutex and lock types carry no capability attributes,
 * so the analysis cannot see their acquisitions. All annotated
 * code therefore locks through qc::Mutex / qc::MutexLock
 * (common/Mutex.hh), which wrap the standard mutex with
 * QC_CAPABILITY / QC_SCOPED_CAPABILITY attributes the analysis
 * does understand.
 *
 * See docs/ANALYSIS.md for the full static-analysis story (which
 * structures are annotated, how to run the checks locally).
 */

#ifndef QC_COMMON_THREAD_ANNOTATIONS_HH
#define QC_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#define QC_THREAD_ATTRIBUTE__(x) __attribute__((x))
#else
#define QC_THREAD_ATTRIBUTE__(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define QC_CAPABILITY(x) QC_THREAD_ATTRIBUTE__(capability(x))

/** Marks an RAII type whose lifetime holds a capability. */
#define QC_SCOPED_CAPABILITY QC_THREAD_ATTRIBUTE__(scoped_lockable)

/** Member data that may only be touched while holding `x`. */
#define QC_GUARDED_BY(x) QC_THREAD_ATTRIBUTE__(guarded_by(x))

/** Pointer member whose *pointee* is protected by `x`. */
#define QC_PT_GUARDED_BY(x) QC_THREAD_ATTRIBUTE__(pt_guarded_by(x))

/** Function requires `...` held on entry (and does not release). */
#define QC_REQUIRES(...) \
    QC_THREAD_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/** Function acquires `...` (held on exit, not on entry). */
#define QC_ACQUIRE(...) \
    QC_THREAD_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/** Function releases `...` (held on entry, not on exit). */
#define QC_RELEASE(...) \
    QC_THREAD_ATTRIBUTE__(release_capability(__VA_ARGS__))

/** Function may not be called while holding `...`. */
#define QC_EXCLUDES(...) \
    QC_THREAD_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/** Function acquires `...` iff it returns `ret`. */
#define QC_TRY_ACQUIRE(ret, ...) \
    QC_THREAD_ATTRIBUTE__(try_acquire_capability(ret, __VA_ARGS__))

/** Returns a reference to the capability guarding the result. */
#define QC_RETURN_CAPABILITY(x) \
    QC_THREAD_ATTRIBUTE__(lock_returned(x))

/** Escape hatch: the function's locking is checked by review, not
 *  by the analysis. Every use needs a comment saying why. */
#define QC_NO_THREAD_SAFETY_ANALYSIS \
    QC_THREAD_ATTRIBUTE__(no_thread_safety_analysis)

#endif // QC_COMMON_THREAD_ANNOTATIONS_HH
