// Static verifier for compiled HDL bytecode (Level 2 of the diagnostics
// layer, docs/diagnostics.md).
//
// compile() (hdl/bytecode.cpp) is trusted to emit well-formed programs, but
// the VM indexes registers, constants, AD seed slots, unknowns, and
// integrator sites with NO runtime bounds checks — a malformed program is a
// silent out-of-bounds read/write or a wrong stamp deep inside Newton. This
// module is the backstop: verify_program() checks every invariant the VM
// relies on, in one linear pass per code stream, so HdlDevice::bind can
// reject a bad program *before* the VM executes it.
//
// Checked invariants (rule ids are the `hdl-*` entries of the diagnostics
// catalog):
//   * program layout: register-file / frame / constant / seed table sizing,
//     seed->unknown and effort-pair rows inside the circuit's unknown vector;
//   * per-instruction operand bounds for every opcode (registers, constants,
//     unknown indices, seed slots, site ids, stamp signs);
//   * def-before-use dataflow over each flat code stream (frame registers are
//     pre-initialized, temporaries must be written before read);
//   * dead code: instructions whose result is never consumed by a stamp,
//     assert, state update, or later read (the straight-line analog of
//     unreachable code);
//   * stamps whose value register has a structurally empty gradient mask —
//     the contribution can never produce a Jacobian entry;
//   * ddt/integ site consistency between the transient and commit streams
//     (a site integrated in tran_code but never committed goes stale).
#pragma once

#include <string>
#include <vector>

#include "hdl/bytecode.hpp"

namespace usys::hdl {

enum class VerifySeverity { warning, error };

/// One finding. `stream` names the offending code stream ("dc", "tran",
/// "commit", or "" for program-level findings); `insn` is the instruction
/// index within it (-1 for program-level findings).
struct VerifyIssue {
  VerifySeverity severity = VerifySeverity::error;
  std::string rule;     ///< catalog id, e.g. "hdl-operand-bounds"
  std::string message;  ///< human-readable detail (entity-qualified)
  std::string stream;
  int insn = -1;
};

struct VerifyReport {
  std::vector<VerifyIssue> issues;

  bool has_errors() const noexcept;
  int error_count() const noexcept;
  /// All error messages joined with "; " (empty when clean of errors).
  std::string error_summary() const;
};

/// Statically verifies `prog` against a circuit with `unknown_count` global
/// unknowns. Pure function of its inputs; never throws. O(insns * seeds).
VerifyReport verify_program(const BytecodeProgram& prog, int unknown_count);

}  // namespace usys::hdl
