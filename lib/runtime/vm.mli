(** The KFlex runtime's execution engine (§3, step 3).

    Interprets an instrumented program while enforcing the two runtime
    halves of extension correctness:

    - {b memory safety}: [Guard] instructions sanitise heap addresses
      (mask + base, one unit of cost, §4.2); accesses that land in guard
      zones or on unpopulated pages raise faults;
    - {b safe termination}: when an invocation exceeds its quantum (or a
      sibling CPU already cancelled the extension), the next [Checkpoint] —
      the [*terminate] heap access — faults; the runtime catches the fault,
      walks the cancellation point's static object table, invokes each
      destructor on the value found at the recorded register/stack-slot
      location, and returns the hook's default code (§3.3, §4.3).

    Execution is cost-accounted: every instruction (including each [Guard])
    costs one unit, and helpers add their declared cost. Benchmarks convert
    units to time through the kernel cost model. *)

type fault_reason =
  | Page_fault  (** heap access to an unpopulated page (C2) *)
  | Guard_zone  (** displacement carried the access past the heap edge *)
  | Wild_access  (** unguarded address outside every region *)
  | Quantum_expired  (** watchdog-initiated cancellation at a C1 point *)
  | Lock_stall  (** spin lock unobtainable within the quantum *)
  | Ext_cancelled  (** another CPU cancelled this extension (§4.3) *)

type stats = {
  mutable insns : int;  (** instructions retired, guards included *)
  mutable guards : int;
  mutable checkpoints : int;
  mutable helper_calls : int;
  mutable helper_cost : int;  (** extra cost units charged by helpers *)
}

val fresh_stats : unit -> stats

val total_cost : stats -> int
(** [insns + helper_cost]. *)

type outcome =
  | Finished of int64
  | Cancelled of {
      orig_pc : int;  (** pre-instrumentation pc of the cancellation point *)
      reason : fault_reason;
      released : (string * string) list;  (** (class, destructor) per object
          released by object-table unwinding *)
      ret : int64;  (** the default (or callback-adjusted) return code *)
      ledger_leaked : int;  (** objects the static table failed to release —
          always 0; tests assert this invariant *)
    }

(** Environment a helper executes in. *)
type call_ctx = Machine.call_ctx = {
  args : U64.bank;
      (** six unboxed slots: 0–4 carry r1–r5, slot 5 is the return value —
          read them through {!arg} and write results through {!set_ret} *)
  mutable cpu : int;
  heap : Heap.t option;
  alloc : Alloc.t option;
  ledger : Ledger.t;
  mem_read : width:int -> int64 -> int64;  (** VM memory (stack/ctx/heap) *)
  mem_write : width:int -> int64 -> int64 -> unit;
  charge : int -> unit;  (** add helper cost units *)
}

type helper = call_ctx -> unit
(** Helpers return through the context's unboxed return slot (preset to 0L
    before every call) instead of a boxed sum — the old
    [H_ret of int64 | H_stall] result allocated on every call. *)

exception Helper_stall
(** Raised by a helper that cannot make progress (e.g. contended lock): the
    VM cancels the extension at the call site, exactly as the old [H_stall]
    arm did. *)

val arg : call_ctx -> int -> int64
(** [arg c i] reads argument register [r(i+1)], for [i] in 0–4. *)

val set_ret : call_ctx -> int64 -> unit
(** Store the helper's return value (lands in [r0]). *)

val stack_base : int64
(** Virtual base of the 512-byte extension stack window ([r10] starts at
    [stack_base + 512]). *)

val ctx_base : int64
(** Virtual base of the context window ([r1] at entry). *)

val prandom_helper : U64.cell -> helper
(** A [bpf_get_prandom_u32] implementation (xorshift64-star) over
    caller-owned state; seed the cell with an odd value. Every extension
    built by {!create} owns one of these, so one extension's draws never
    advance another's stream — callers that need a particular seed (the
    engine per shard, the fuzz oracles per run) shadow the builtin with
    their own through [~helpers]. The state lives in a {!U64.cell} rather
    than an [int64 ref] so advancing it never allocates. *)

val ktime_helper : U64.cell -> helper
(** Same for [bpf_ktime_get_ns]: a one-tick-per-call virtual clock over
    caller-owned state. *)

type ext
(** A loaded (instrumented) extension ready to run. *)

val create :
  ?heap:Heap.t ->
  ?alloc:Alloc.t ->
  ?quantum:int ->
  ?default_ret:int64 ->
  ?on_cancel:(int64 -> int64) ->
  helpers:(string * helper) list ->
  Kflex_kie.Instrument.t ->
  ext
(** [quantum] is the watchdog budget in cost units per invocation (default
    100 million ≈ seconds of real execution, §4.3). [on_cancel] is the §4.3
    user callback that may rewrite the default return code. [helpers] extend
    (and may shadow) the builtin KFlex runtime API: [kflex_malloc],
    [kflex_free], [kflex_spin_lock], [kflex_spin_unlock], [kflex_heap_base],
    [bpf_get_smp_processor_id], and this extension's own
    [bpf_get_prandom_u32] stream and [bpf_ktime_get_ns] clock (fresh per
    extension, always from the same origin). *)

val cancel : ext -> unit
(** Request cancellation (all CPUs, §4.3): every running or future
    invocation faults at its next cancellation point. *)

val cancelled : ext -> bool

val reset_cancel : ext -> unit
(** Re-arm a cancelled extension (tests only; the paper's runtime unloads the
    extension instead). *)

val kie : ext -> Kflex_kie.Instrument.t

type backend = [ `Interp | `Compiled ]
(** The engine a loader asks for: the fetch/decode interpreter, or the
    closure-compiled direct-threaded backend ({!Jit}). Both produce
    bit-identical outcomes, stats and memory effects; the compiled backend
    exists purely for speed. The choice is made once, at load: a
    [`Compiled] loader installs the compiled form ({!precompile},
    {!set_compiled}) and {!exec} follows it. *)

val precompile : ?fuse:bool -> ext -> Jit.t
(** Compile the extension's instrumented program and install the result:
    from then on every hook-free {!exec} runs it. [fuse] (default [true])
    enables superinstruction fusion. Returns the compiled form (for
    fusion/compile-time reporting). *)

val set_compiled : ext -> Jit.t -> unit
(** Install an externally compiled program (e.g. from the core facade's
    compiled-program cache), linking its helper table against this
    extension's helpers. *)

val exec :
  ext ->
  ctx:Bytes.t ->
  ?cpu:int ->
  ?stats:stats ->
  ?on_insn:(int -> int64 array -> unit) ->
  ?on_site:(unit -> bool) ->
  unit ->
  outcome
(** Run one invocation with the given context block. [stats], when supplied,
    accumulates across invocations.

    [on_insn] observes every instruction boundary: it receives the
    instrumented pc and the live register file {e before} the instruction
    executes. Exceptions it raises propagate out of [exec] uncaught — the
    fuzzer's containment oracle uses this both to check abstract states and
    to bound runaway concrete loops.

    [on_site] is consulted at every cancellation site — each [Checkpoint]
    and each memory access whose address leaves the stack/ctx windows — in
    execution order; returning [true] injects an asynchronous cancellation
    ({!Ext_cancelled}) at that site, exercising object-table unwinding.

    Selection: with no hook, the extension's installed compiled form runs
    when it has one ({!precompile}, {!set_compiled}); otherwise the
    interpreter runs with its hook checks compiled out. Supplying either
    hook always runs the interpreter with the checks in, compiled form or
    not: observation points only exist there. *)

(** The pre-refactor boxed reference semantics, kept as the ground truth for
    the [repr_equiv] differential oracle: a boxed [int64 array] register
    file with [Stdlib.Int64] arithmetic everywhere (including the stdlib's
    unsigned division) and the width-dispatched generic memory path. Shares
    no ALU/comparison/accessor code with the unboxed backends, so a
    representation bug there cannot also hide here. Slow by design; never
    use it outside differential testing. *)
module Ref_interp : sig
  val exec :
    ext ->
    ctx:Bytes.t ->
    ?cpu:int ->
    ?stats:stats ->
    ?on_insn:(int -> int64 array -> unit) ->
    unit ->
    outcome
  (** Same contract as {!exec} restricted to the interpreter: [on_insn]
      observes the (boxed) register file before each instruction. *)
end
