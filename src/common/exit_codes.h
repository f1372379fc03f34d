// Process exit codes shared by the CLI, the bench harness, and the server.
//
// The outcome taxonomy (OK / usage error / DNF / CRASH / OOM / NUMERICAL,
// DESIGN.md §10) crosses three process boundaries — `graphalign align`
// exits with these, the bench binaries exit with kExitUsage on malformed
// flags, and the serving daemon answers with them as its wire-level
// ResponseCode (server/protocol.h), whose values are these — so the values
// live here instead of being repeated as magic numbers at each site. Which
// code a run ends as, and each code's name, is common/outcome.h.
#ifndef GRAPHALIGN_COMMON_EXIT_CODES_H_
#define GRAPHALIGN_COMMON_EXIT_CODES_H_

namespace graphalign {

inline constexpr int kExitOk = 0;       // Completed.
inline constexpr int kExitError = 1;    // Generic runtime error.
inline constexpr int kExitUsage = 2;    // Malformed command line / request.
inline constexpr int kExitDnf = 3;      // Time budget exceeded (DNF).
inline constexpr int kExitCrash = 4;    // The workload crashed (signal).
inline constexpr int kExitOom = 5;      // The workload exceeded its memory cap.
inline constexpr int kExitBusy = 6;     // The server refused admission (BUSY).
inline constexpr int kExitNumerical = 7;  // Recoverable numerical failure
                                          // (StatusCode::kNumerical) that was
                                          // not absorbed by degradation.
inline constexpr int kExitShuttingDown = 8;  // The server is draining and no
                                             // longer accepts new requests.
inline constexpr int kExitShed = 9;     // The request's queue wait consumed
                                        // its deadline; it was shed before
                                        // any compute (transient: retry).
inline constexpr int kExitQuarantined = 10;  // The (g1, g2, algo) signature
                                             // repeatedly crashed/OOMed and
                                             // is quarantined (permanent).
inline constexpr int kExitNoGraph = 11;  // A submit-by-hash request named a
                                         // graph the store does not hold (or
                                         // held only a corrupt, now-
                                         // quarantined copy): re-upload it.
inline constexpr int kExitPartial = 12;  // A batch completed with mixed
                                         // per-job outcomes (some OK, some
                                         // not); inspect the per-job codes.
inline constexpr int kExitAccepted = 13;  // An async job was accepted (or
                                          // deduplicated onto an existing
                                          // unfinished one); poll its id.
inline constexpr int kExitNoJob = 14;  // A job id the daemon does not hold
                                       // (never submitted, or GC'd past
                                       // its TTL).
inline constexpr int kExitConflict = 15;  // The request conflicts with the
                                          // job's state: cancel of a
                                          // finished job, or an idempotency
                                          // key reused for other content.

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_EXIT_CODES_H_
