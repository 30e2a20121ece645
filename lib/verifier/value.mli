(** Abstract register values.

    Registers hold either scalars with range bounds, pointers into one of the
    verifier-known memory regions (context, stack, extension heap) with an
    offset range, references to acquired kernel objects (e.g. sockets) that
    must be released before the extension exits, or [Unknown] — an untrusted
    word loaded from the extension heap.

    [Unknown] captures KFlex's division of labour: the kernel does not care
    what extensions keep in their own memory, so a word read back from the
    heap may be used as a number {e or} as an address — any dereference of it
    is SFI-guarded and therefore safe (§3.2). Pointer and object values may
    be [nullable] until a null check dominates their use. *)

type ptr_kind =
  | Ctx  (** the hook-specific context (read-only to extensions) *)
  | Stack  (** the 512-byte extension stack, offsets relative to r10 *)
  | Heap  (** the extension heap; accesses are SFI-sanitised *)

type t =
  | Uninit  (** never written; any use is an error *)
  | Scalar of Range.t
  | Unknown  (** untrusted word from the extension heap *)
  | Ptr of { kind : ptr_kind; off : Range.t; nullable : bool }
      (** a pointer [region_base + off]; [off] may be refined by range
          analysis. A nullable pointer must be null-checked before use
          (except heap pointers in KFlex mode, where the guard makes any
          dereference safe). *)
  | Obj of { klass : string; id : int; nullable : bool }
      (** an acquired kernel object of class [klass]; [id] identifies the
          acquisition instance for reference tracking. *)

val scalar_top : t

val equal : t -> t -> bool

val leq : t -> t -> bool
(** [leq a b]: joining [a] into [b] gives back [b] — [equal (join b a) b].
    Exact, and {!join} returns its first argument itself in that case. *)

val join : t -> t -> t
(** Least upper bound. [Unknown] absorbs scalars and heap pointers; joining
    other incompatible shapes (e.g. a stack pointer with a scalar) yields
    [Uninit], making any subsequent use an error — the same effect as the
    eBPF verifier rejecting mixed-provenance values. Objects join only with
    the identical object. *)

val obj_id : t -> int option
(** The resource id when the value is an [Obj]. *)

val pp : Format.formatter -> t -> unit

val pp_ptr_kind : Format.formatter -> ptr_kind -> unit
