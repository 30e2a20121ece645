(** Abstract machine state for verification.

    Tracks the abstract value of each register, the contents of the 512-byte
    extension stack at 8-byte slot granularity, and the set of kernel
    resources currently held (the input to object-table generation, §3.3).

    States form a lattice: {!join} merges the states flowing into a CFG
    block; {!widen} accelerates convergence around loops. *)

type slot =
  | S_empty  (** never written — reads are errors *)
  | S_misc  (** scalar bytes of unknown value *)
  | S_spill of Value.t
      (** an aligned 8-byte spill of a tracked value (never [Uninit]: every
          writer stores {!S_empty} instead) *)

type resource = { id : int; klass : string; destructor : string }

type t = {
  regs : Value.t array;  (** length 11, indexed by register number *)
  stack : slot array;  (** length 64; slot [i] covers bytes [8i..8i+7] of
      the stack frame, byte 0 being [r10 - 512] *)
  res : resource list;  (** held resources, sorted by id *)
  origin : int array;
      (** length 11: the stack slot register [i] was loaded from (and still
          mirrors), or -1. Lets branch refinements on a register narrow the
          spilled copy too — the precision the eBPF verifier keeps for
          spilled registers, and what makes loop-counter-indexed heap
          accesses provably safe (§5.4). *)
}

val nslots : int

val slot_of_full_store : int -> int -> int option
(** [slot_of_full_store disp width]: the slot an access at [r10 + disp]
    overwrites whole — an aligned 8-byte store inside the frame — or
    [None]. *)

val overlapping_slots : int -> int -> int list
(** The slots, ascending, that bytes [r10 + disp .. + width - 1] touch
    inside the frame. *)

val init : ctx_nullable:bool -> t
(** The entry state: [r1] = context pointer, [r10] = frame pointer, all other
    registers uninitialised, empty stack, no resources. *)

val get : t -> Kflex_bpf.Reg.t -> Value.t

(** {2 Working copies}

    A state is persistent once published: the verifier keeps one per block
    entry and one per pc. Transfer functions instead update a {!work} copy
    in place. It copies a shared array on its first write after {!work}
    or {!publish}, so a straight-line run of instructions copies the
    registers and the stack at most once each. *)

type work

val work : t -> work
(** A working copy starting from a published state. *)

val view : work -> t
(** The current contents, for reading. The arrays may be updated by the
    next write to the working copy: use {!publish} to keep a state. *)

val publish : work -> t
(** A persistent snapshot of the current contents, in O(1): the working
    copy copies again before its next write. *)

val set : work -> Kflex_bpf.Reg.t -> Value.t -> unit
(** Write a register (clears its origin). *)

val set_from_slot : work -> Kflex_bpf.Reg.t -> Value.t -> int -> unit
(** Like {!set}, recording that the register mirrors a stack slot. *)

val refine_mirrored : work -> Kflex_bpf.Reg.t -> Value.t -> unit
(** Narrow a register (after a branch refinement) and, when it mirrors a
    stack slot, narrow the spilled copy too. *)

val write_slot : work -> int -> slot -> unit
(** Update a stack slot, invalidating registers that mirrored it. *)

val clobber_slot : work -> int -> unit
(** Make a stack slot {!S_misc} (a helper wrote through a stack pointer),
    leaving register origins as they are. *)

val equal : t -> t -> bool

val leq : t -> t -> bool
(** [leq a b]: joining [a] into [b] gives back [b] ([join b a] is [Ok c]
    with [equal c b]). Exact and allocation-free: the fixpoint skips the
    join for a state that adds nothing. *)

val join : t -> t -> (t, string) result
(** [Error] when the resource sets differ — a path acquired a resource the
    other did not, which the verifier rejects (it is also the §3.1
    loop-convergence violation when the join point is a loop header). *)

val widen : prev:t -> t -> t
(** Replace, in the new state, every range that grew since [prev] by the
    full range, forcing fixpoints to terminate. *)

val add_res : work -> resource -> unit
val remove_res : work -> int -> unit
val has_res : t -> int -> bool

(** {2 Resource locations} *)

type loc = L_reg of Kflex_bpf.Reg.t | L_slot of int

val find_obj : t -> int -> loc option
(** Some location (register preferred) currently holding the object with the
    given resource id. *)

val leaked : t -> resource option
(** The first held resource with no remaining location — fatal: the runtime
    could not release it on cancellation. *)

val substitute_obj : work -> id:int -> Value.t -> unit
(** Replace every copy of object [id] (register and spilled) by the given
    value — used when a resource is released or null-pruned. *)

val set_nonnull_obj : work -> id:int -> unit
(** Mark every copy of object [id] as non-null (after a null check). *)

val pp : Format.formatter -> t -> unit
