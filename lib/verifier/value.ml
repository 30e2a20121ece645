type ptr_kind = Ctx | Stack | Heap

type t =
  | Uninit
  | Scalar of Range.t
  | Unknown
  | Ptr of { kind : ptr_kind; off : Range.t; nullable : bool }
  | Obj of { klass : string; id : int; nullable : bool }

let scalar_top = Scalar Range.top

let equal a b =
  a == b ||
  match (a, b) with
  | Uninit, Uninit -> true
  | Unknown, Unknown -> true
  | Scalar x, Scalar y -> Range.equal x y
  | Ptr p, Ptr q ->
      p.kind = q.kind && Range.equal p.off q.off && p.nullable = q.nullable
  | Obj o, Obj p -> o.klass = p.klass && o.id = p.id && o.nullable = p.nullable
  | _ -> false

(* [leq a b]: [join b a] equals [b]. Case by case the same shapes as
   [join], so the test is exact, not just sound. *)
let leq a b =
  a == b
  ||
  match (b, a) with
  | Uninit, _ -> true
  | _, Uninit -> false
  | Scalar y, Scalar x -> Range.subset x y
  | Unknown, (Scalar _ | Unknown | Ptr { kind = Heap; _ }) -> true
  | Ptr p, Ptr q ->
      p.kind = q.kind
      && Range.subset q.off p.off
      && (p.nullable || not q.nullable)
  | Obj o, Obj p ->
      o.klass = p.klass && o.id = p.id && (o.nullable || not p.nullable)
  | _ -> false

let join a b =
  if leq b a then a
  else
    match (a, b) with
    | Uninit, _ | _, Uninit -> Uninit
    | Scalar x, Scalar y -> Scalar (Range.join x y)
    | Unknown, (Scalar _ | Unknown | Ptr { kind = Heap; _ })
    | (Scalar _ | Ptr { kind = Heap; _ }), Unknown ->
        Unknown
    | Ptr p, Ptr q when p.kind = q.kind ->
        Ptr
          {
            kind = p.kind;
            off = Range.join p.off q.off;
            nullable = p.nullable || q.nullable;
          }
    | Ptr { kind = Heap; _ }, Scalar _ | Scalar _, Ptr { kind = Heap; _ } ->
        (* a heap address or a number: usable only through a guard *)
        Unknown
    | Obj o, Obj p when o.klass = p.klass && o.id = p.id ->
        Obj { o with nullable = o.nullable || p.nullable }
    | _ -> Uninit

let obj_id = function Obj o -> Some o.id | _ -> None

let pp_ptr_kind ppf k =
  Format.pp_print_string ppf
    (match k with Ctx -> "ctx" | Stack -> "stack" | Heap -> "heap")

let pp ppf = function
  | Uninit -> Format.pp_print_string ppf "uninit"
  | Unknown -> Format.pp_print_string ppf "unknown"
  | Scalar r -> Format.fprintf ppf "scalar%a" Range.pp r
  | Ptr p ->
      Format.fprintf ppf "%a_ptr%a%s" pp_ptr_kind p.kind Range.pp p.off
        (if p.nullable then "?" else "")
  | Obj o ->
      Format.fprintf ppf "obj<%s#%d>%s" o.klass o.id
        (if o.nullable then "?" else "")
