"""Multiparty-session-type workbench.

Protocols are specified as global types (or explicit multiparty LTSs) and
each per-role process is type-checked directly against the specification's
transition system; well-typed sessions are safe and live, which the runtime
validates by exhaustive bounded execution.
"""
from .terms import (GBranch, GComm, GEnd, GlobalAction, GlobalType, GMu, GPar,
                    GVar, PayloadType, PEnd, PIf, PLet, PRec, PRecv, Process,
                    PSend, PVar, RecvBranch, Session, SourceSpan,
                    check_wellformed_global, check_wellformed_process, obj,
                    pretty_global, pretty_process, roles_of,
                    substitute_global, substitute_process_rec,
                    substitute_process_val)
from .lts import (CapExceededError, GlobalLts, build_lts, par_operands,
                  reach_strong_without, reach_without, step, step_with)
from .mlts import (Mlts, Violations, WbViolation, check_well_behaved,
                   receiver_disjoint, replay_violation)
from .typecheck import (Checker, Derivation, TcError, render_derivation,
                        type_expr, type_process, type_session, try_skip)
from .runtime import (EvalError, ExploreReport, TauAction, Trace,
                      check_trace, eval_expr, explore, replay_trace, run,
                      session_step)
from .parser import (Diagnostic, ProtocolFile, parse_file, parse_mlts,
                     pretty_file)

__version__ = "0.1.0"
