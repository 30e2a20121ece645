(** Tristate numbers: the verifier's known-bits abstract domain.

    A tnum [{value; mask}] describes the set of 64-bit words [w] such that
    [w land (lnot mask) = value] — every bit is either {e known} (the
    corresponding [mask] bit is 0 and the bit equals the one in [value]) or
    {e unknown} (the [mask] bit is 1, and then the [value] bit is 0 by
    invariant). This is the same domain the Linux eBPF verifier tracks in
    [struct tnum] ([kernel/bpf/tnum.c]) alongside interval bounds; the two
    views are synchronised in {!Range} the way [reg_bounds_sync] does it.

    It is exactly masking and alignment arithmetic — [land] with a
    size-class mask, [lor] of low flag bits, [lxor] scrambles, shifts by
    constants — where intervals lose precision and known bits retain it,
    which is why the domain sharpens guard elision (§3.2/§5.4 of the paper).

    Deviations from kernel tnum semantics (documented per the repo policy):
    - [div] and [rem] return {!unknown} for non-constant operands; the
      kernel has no tnum transfer for divisions either (it falls back to
      unknown in [scalar_min_max_div] paths), but we also make the
      constant/constant case exact at the {!Range} layer rather than here.
    - [intersect] detects contradictions (known bits that disagree) and
      returns [None]; the kernel's [tnum_intersect] assumes compatible
      inputs and silently produces garbage on conflict. We need the
      contradiction signal to prune dead branches during refinement.
    - Shifts with non-constant shift amounts return {!unknown}; the kernel
      models small ranges of shifts ([tnum_arshift] takes [min_shift]).
      Constant shifts — the only ones our compiler emits for scaling — are
      exact on known bits. *)

type t = private { value : int64; mask : int64 }
(** Invariant: [value land mask = 0]. *)

val unknown : t
(** All 64 bits unknown — the top element. *)

val const : int64 -> t
(** All bits known. *)

val make : value:int64 -> mask:int64 -> t
(** Normalises the invariant: bits of [value] under [mask] are cleared. *)

val is_unknown : t -> bool

val is_const : t -> int64 option

val equal : t -> t -> bool

val contains : t -> int64 -> bool
(** Membership: all known bits of the tnum agree with the word. *)

val umin : t -> int64
(** Smallest member as unsigned: all unknown bits 0, i.e. [value]. *)

val umax : t -> int64
(** Largest member as unsigned: all unknown bits 1, i.e. [value lor mask]. *)

val within_mask : t -> int64 -> bool
(** [within_mask t m]: every member [w] satisfies [w land m = w] — i.e. all
    possibly-set bits lie inside [m]. This is the "redundant sanitisation"
    query: an [And] with [m] cannot change such a value. *)

val range : int64 -> int64 -> t
(** [range lo hi] (unsigned [lo <= hi]): the best tnum containing the whole
    interval — the common high-bit prefix of [lo] and [hi] is known, bits
    below the highest differing bit are unknown (kernel [tnum_range]). *)

val within_range : t -> int64 -> int64 -> bool
(** [within_range t lo hi] is [subset t (range lo hi)], computed without
    allocating. *)

val intersect : t -> t -> t option
(** Greatest lower bound; [None] when known bits disagree (empty set). *)

val union : t -> t -> t
(** Least upper bound (kernel [tnum_union]). *)

val subset : t -> t -> bool
(** [subset a b]: every member of [a] is a member of [b]. *)

(** {1 Transfer functions}

    Sound over-approximations of 64-bit machine arithmetic, ported from
    [kernel/bpf/tnum.c]. All are exact when both operands are constants. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Always {!unknown} unless handled as constants by the caller. *)

val rem : t -> t -> t
(** Always {!unknown} unless handled as constants by the caller. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val lshift : t -> int -> t
(** Shift by a known amount in [0..63]. *)

val rshift : t -> int -> t
val arshift : t -> int -> t

val shl : t -> t -> t
(** Shift by a tnum amount: exact when the amount is constant (taken
    modulo 64, as the ISA does), otherwise {!unknown}. *)

val lshr : t -> t -> t
val ashr : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Constants print as the value; otherwise [v/m] in hex, e.g. [0x3c/0xff]
    — kernel notation: value slash mask. *)
