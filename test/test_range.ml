(* Property tests for the verifier's value-range domain: every transfer
   function must be a sound over-approximation, and branch refinement must
   keep all models of the assumed condition. *)
open Kflex_verifier

let arb_i64 =
  QCheck.(
    make
      ~print:(Printf.sprintf "%Ld")
      Gen.(
        oneof
          [
            map Int64.of_int int;
            oneofl
              [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xffL; 4096L;
                -4096L ];
          ]))

(* A range built from two concrete values (both of which are members). *)
let arb_range2 =
  QCheck.(
    map
      (fun (a, b) -> ((a, b), Range.join (Range.const a) (Range.const b)))
      (pair arb_i64 arb_i64))

(* Membership in the full combined domain: interval bounds AND known bits.
   Using this in every soundness property below means the tnum half of each
   transfer function is checked by the same models as the interval half. *)
let in_range v (r : Range.t) =
  Int64.unsigned_compare r.Range.umin v <= 0
  && Int64.unsigned_compare v r.Range.umax <= 0
  && r.Range.smin <= v && v <= r.Range.smax
  && Tnum.contains (Range.bits r) v

let ops : (string * (Range.t -> Range.t -> Range.t) * (int64 -> int64 -> int64)) list
    =
  [
    ("add", Range.add, Int64.add);
    ("sub", Range.sub, Int64.sub);
    ("mul", Range.mul, Int64.mul);
    ("div", Range.div, fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
    ("rem", Range.rem, fun a b -> if b = 0L then a else Int64.unsigned_rem a b);
    ("and", Range.logand, Int64.logand);
    ("or", Range.logor, Int64.logor);
    ("xor", Range.logxor, Int64.logxor);
    ("shl", Range.shl, fun a b -> Int64.shift_left a (Int64.to_int b land 63));
    ( "shr",
      Range.lshr,
      fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63) );
    ("ashr", Range.ashr, fun a b -> Int64.shift_right a (Int64.to_int b land 63));
  ]

let soundness_tests =
  List.map
    (fun (name, abs, conc) ->
      QCheck.Test.make ~count:1000 ~name:("soundness " ^ name)
        QCheck.(pair arb_range2 arb_range2)
        (fun (((x1, x2), rx), ((y1, y2), ry)) ->
          let res = abs rx ry in
          List.for_all
            (fun x -> List.for_all (fun y -> in_range (conc x y) res) [ y1; y2 ])
            [ x1; x2 ]))
    ops

let conds =
  [
    (Kflex_bpf.Insn.Eq, fun a b -> Int64.equal a b);
    (Kflex_bpf.Insn.Ne, fun a b -> not (Int64.equal a b));
    (Kflex_bpf.Insn.Lt, fun a b -> Int64.unsigned_compare a b < 0);
    (Kflex_bpf.Insn.Le, fun a b -> Int64.unsigned_compare a b <= 0);
    (Kflex_bpf.Insn.Gt, fun a b -> Int64.unsigned_compare a b > 0);
    (Kflex_bpf.Insn.Ge, fun a b -> Int64.unsigned_compare a b >= 0);
    (Kflex_bpf.Insn.Slt, fun a b -> Int64.compare a b < 0);
    (Kflex_bpf.Insn.Sle, fun a b -> Int64.compare a b <= 0);
    (Kflex_bpf.Insn.Sgt, fun a b -> Int64.compare a b > 0);
    (Kflex_bpf.Insn.Sge, fun a b -> Int64.compare a b >= 0);
  ]

(* refinement soundness: models of the condition survive refinement *)
let refine_tests =
  List.map
    (fun (cond, holds) ->
      let name =
        Format.asprintf "refine %a" Kflex_bpf.Insn.pp_cond cond
      in
      QCheck.Test.make ~count:1000 ~name
        QCheck.(pair arb_range2 arb_range2)
        (fun (((x1, x2), rx), ((y1, y2), ry)) ->
          let models =
            List.concat_map
              (fun x ->
                List.filter_map
                  (fun y -> if holds x y then Some (x, y) else None)
                  [ y1; y2 ])
              [ x1; x2 ]
          in
          match Range.refine cond rx ry with
          | None -> models = [] (* dead branch must really have no models *)
          | Some (rx', ry') ->
              List.for_all
                (fun (x, y) -> in_range x rx' && in_range y ry')
                models))
    conds

(* ---- direct Tnum properties -------------------------------------------- *)

(* A tnum built from two concrete witnesses (both of which are members). *)
let arb_tnum2 =
  QCheck.(
    map
      (fun (a, b) -> ((a, b), Tnum.union (Tnum.const a) (Tnum.const b)))
      (pair arb_i64 arb_i64))

let tnum_ops : (string * (Tnum.t -> Tnum.t -> Tnum.t) * (int64 -> int64 -> int64)) list
    =
  [
    ("add", Tnum.add, Int64.add);
    ("sub", Tnum.sub, Int64.sub);
    ("mul", Tnum.mul, Int64.mul);
    ("div", Tnum.div, fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
    ("rem", Tnum.rem, fun a b -> if b = 0L then a else Int64.unsigned_rem a b);
    ("and", Tnum.logand, Int64.logand);
    ("or", Tnum.logor, Int64.logor);
    ("xor", Tnum.logxor, Int64.logxor);
    ("shl", Tnum.shl, fun a b -> Int64.shift_left a (Int64.to_int b land 63));
    ( "shr",
      Tnum.lshr,
      fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63) );
    ("ashr", Tnum.ashr, fun a b -> Int64.shift_right a (Int64.to_int b land 63));
  ]

let tnum_soundness_tests =
  List.map
    (fun (name, abs, conc) ->
      QCheck.Test.make ~count:1000 ~name:("tnum soundness " ^ name)
        QCheck.(pair arb_tnum2 arb_tnum2)
        (fun (((x1, x2), tx), ((y1, y2), ty)) ->
          let res = abs tx ty in
          List.for_all
            (fun x ->
              List.for_all (fun y -> Tnum.contains res (conc x y)) [ y1; y2 ])
            [ x1; x2 ]))
    tnum_ops

let prop_tnum_neg =
  QCheck.Test.make ~count:1000 ~name:"tnum soundness neg" arb_tnum2
    (fun ((x1, x2), tx) ->
      let res = Tnum.neg tx in
      List.for_all (fun x -> Tnum.contains res (Int64.neg x)) [ x1; x2 ])

let prop_tnum_const_exact =
  QCheck.Test.make ~count:500 ~name:"tnum const ops are exact"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (name, abs, conc) ->
          (* div/rem deliberately degrade to unknown (see tnum.mli) *)
          name = "div" || name = "rem"
          || Tnum.is_const (abs (Tnum.const a) (Tnum.const b)) = Some (conc a b))
        tnum_ops)

let prop_tnum_range =
  QCheck.Test.make ~count:1000 ~name:"tnum range contains the interval"
    QCheck.(triple arb_i64 arb_i64 arb_i64)
    (fun (a, b, c) ->
      let sorted = List.sort Int64.unsigned_compare [ a; b; c ] in
      match sorted with
      | [ lo; mid; hi ] ->
          let t = Tnum.range lo hi in
          Tnum.contains t lo && Tnum.contains t mid && Tnum.contains t hi
      | _ -> false)

let prop_tnum_lattice =
  QCheck.Test.make ~count:1000 ~name:"tnum union/intersect/subset agree"
    QCheck.(pair arb_tnum2 arb_tnum2)
    (fun (((x1, x2), tx), ((y1, y2), ty)) ->
      let u = Tnum.union tx ty in
      List.for_all (Tnum.contains u) [ x1; x2; y1; y2 ]
      && Tnum.subset tx u && Tnum.subset ty u
      &&
      match Tnum.intersect tx ty with
      | Some i ->
          List.for_all
            (fun w ->
              Tnum.contains i w = (Tnum.contains tx w && Tnum.contains ty w))
            [ x1; x2; y1; y2 ]
      | None ->
          (* empty intersection: no common member among the witnesses *)
          not (List.exists (fun w -> Tnum.contains ty w) [ x1; x2 ])
          || not (List.exists (fun w -> Tnum.contains tx w) [ y1; y2 ]))

let prop_tnum_within_mask =
  QCheck.Test.make ~count:1000 ~name:"within_mask implies land is identity"
    QCheck.(pair arb_tnum2 arb_i64)
    (fun (((x1, x2), tx), m) ->
      (not (Tnum.within_mask tx m))
      || List.for_all (fun x -> Int64.logand x m = x) [ x1; x2 ])

(* The kernel's recursive tnum_mul, kept here as the reference for the
   loop in Tnum.mul. *)
let tnum_mul_reference (a : Tnum.t) (b : Tnum.t) =
  let open Int64 in
  let rec go (a : Tnum.t) (b : Tnum.t) acc =
    if a.value = 0L && a.mask = 0L then acc
    else
      let acc =
        if logand a.value 1L <> 0L then Tnum.add acc (Tnum.make ~value:0L ~mask:b.mask)
        else if logand a.mask 1L <> 0L then
          Tnum.add acc (Tnum.make ~value:0L ~mask:(logor b.value b.mask))
        else acc
      in
      go (Tnum.rshift a 1) (Tnum.lshift b 1) acc
  in
  Tnum.add (Tnum.const (mul a.value b.value)) (go a b (Tnum.const 0L))

let prop_tnum_mul_reference =
  QCheck.Test.make ~count:1000 ~name:"tnum mul matches the recursive form"
    QCheck.(pair arb_tnum2 arb_tnum2)
    (fun ((_, tx), (_, ty)) ->
      Tnum.equal (Tnum.mul tx ty) (tnum_mul_reference tx ty))

let prop_tnum_within_range =
  QCheck.Test.make ~count:1000 ~name:"within_range is subset of range"
    QCheck.(triple arb_tnum2 arb_i64 arb_i64)
    (fun ((_, t), a, b) ->
      let lo, hi = if Int64.unsigned_compare a b <= 0 then (a, b) else (b, a) in
      Tnum.within_range t lo hi = Tnum.subset t (Tnum.range lo hi))

(* ---- join and its inclusion test ------------------------------------------ *)

(* Values over a handful of small constants, so that generated pairs are
   often included in one another and [leq] is exercised both ways. *)
let gen_value =
  QCheck.Gen.(
    let small = oneofl [ 0L; 1L; 255L ] in
    let range = map2 (fun a b -> Range.join (Range.const a) (Range.const b)) small small in
    frequency
      [
        (1, return Value.Uninit);
        (1, return Value.Unknown);
        (3, map (fun r -> Value.Scalar r) range);
        ( 4,
          map3
            (fun kind off nullable -> Value.Ptr { kind; off; nullable })
            (oneofl [ Value.Ctx; Value.Stack; Value.Heap ])
            range bool );
        ( 2,
          map3
            (fun klass id nullable -> Value.Obj { klass; id; nullable })
            (oneofl [ "sock"; "lock" ]) (int_range 1 2) bool );
      ])

(* The value join spelled out case by case, without the shortcut through
   [Value.leq] that [Value.join] takes, as an independent reference. *)
let reference_join (a : Value.t) (b : Value.t) : Value.t =
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
      Unknown
  | Obj o, Obj p when o.klass = p.klass && o.id = p.id ->
      Obj { o with nullable = o.nullable || p.nullable }
  | _ -> Uninit

(* independent pairs, and pairs one side of which is a join with the other *)
let arb_value_pair =
  let pp = Format.asprintf "%a" Value.pp in
  QCheck.make
    ~print:(fun (a, b) -> pp a ^ " , " ^ pp b)
    QCheck.Gen.(
      triple gen_value gen_value (int_bound 2) >|= fun (a, c, k) ->
      match k with
      | 0 -> (a, c)
      | 1 -> (a, reference_join c a)
      | _ -> (reference_join c a, a))

let prop_value_leq_exact =
  QCheck.Test.make ~count:5000 ~name:"Value.leq a b iff join b a = b"
    arb_value_pair
    (fun (a, b) ->
      Value.leq a b = Value.equal (reference_join b a) b
      && Value.equal (Value.join b a) (reference_join b a))

(* Small states: registers and four stack slots drawn from [gen_value],
   origins from {-1, 0}, one optional held resource. *)
let gen_state =
  QCheck.Gen.(
    let slot =
      frequency
        [
          (2, return State.S_empty);
          (1, return State.S_misc);
          ( 3,
            map
              (function Value.Uninit -> State.S_empty | v -> State.S_spill v)
              gen_value );
        ]
    in
    map4
      (fun regs slots origin held ->
        let st = State.init ~ctx_nullable:false in
        let stack = Array.copy st.State.stack in
        List.iteri (fun i s -> stack.(i) <- s) slots;
        {
          State.regs = Array.of_list regs;
          stack;
          origin = Array.of_list origin;
          res =
            (if held then [ { State.id = 1; klass = "lock"; destructor = "unlock" } ]
             else []);
        })
      (list_repeat 11 gen_value) (list_repeat 4 slot)
      (list_repeat 11 (oneofl [ -1; 0 ]))
      (frequency [ (4, return false); (1, return true) ]))

(* Independent pairs, pairs sharing a resource set (so the join is
   defined), pairs one side of which is a join with the other (so [leq]
   holds), and such pairs with the join's stack or origins replaced (so
   the registers pass and the rest decides). *)
let arb_state_pair =
  QCheck.(
    map
      (fun (a, b, k) ->
        let a' = { a with State.res = b.State.res } in
        match (k, State.join b a') with
        | 0, _ -> (a, b)
        | 1, _ -> (a', b)
        | 2, Ok c -> (a', c)
        | 3, Ok c -> (a', { c with State.stack = b.State.stack })
        | _, Ok c -> (a', { c with State.origin = b.State.origin })
        | _, Error _ -> assert false)
      (triple (make gen_state) (make gen_state) (int_bound 4)))

let prop_state_leq_exact =
  QCheck.Test.make ~count:3000 ~name:"State.leq a b iff join b a = b"
    arb_state_pair
    (fun (a, b) ->
      State.leq a b
      = match State.join b a with Ok c -> State.equal c b | Error _ -> false)

(* refine and negate_cond partition concrete pairs: exactly one of the two
   refinements accepts (a, b), and the accepting one admits it. *)
let prop_refine_negate_consistent =
  QCheck.Test.make ~count:1000 ~name:"refine/negate_cond partition constants"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (c, holds) ->
          let ra = Range.const a and rb = Range.const b in
          let pos = Range.refine c ra rb in
          let neg = Range.refine (Range.negate_cond c) ra rb in
          let admits = function
            | Some (ra', rb') -> in_range a ra' && in_range b rb'
            | None -> false
          in
          if holds a b then admits pos && neg = None
          else admits neg && pos = None)
        conds)

let prop_neg_sound =
  QCheck.Test.make ~count:1000 ~name:"soundness neg" arb_range2
    (fun ((x1, x2), rx) ->
      let res = Range.neg rx in
      List.for_all (fun x -> in_range (Int64.neg x) res) [ x1; x2 ])

let prop_negate_cond =
  QCheck.Test.make ~count:500 ~name:"negate_cond is boolean negation"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (c, holds) ->
          match c with
          | Kflex_bpf.Insn.Set -> true (* Set has no exact negation *)
          | _ ->
              let neg = Range.negate_cond c in
              let holds_neg =
                List.assoc neg conds
              in
              holds a b <> holds_neg a b)
        conds)

let prop_join_subset =
  QCheck.Test.make ~count:500 ~name:"join is an upper bound"
    QCheck.(pair arb_range2 arb_range2)
    (fun ((_, rx), (_, ry)) ->
      let j = Range.join rx ry in
      Range.subset rx j && Range.subset ry j)

let prop_const_exact =
  QCheck.Test.make ~count:500 ~name:"const ops are exact"
    QCheck.(pair arb_i64 arb_i64)
    (fun (a, b) ->
      List.for_all
        (fun (_, abs, conc) ->
          Range.is_const (abs (Range.const a) (Range.const b))
          = Some (conc a b))
        ops)

let test_zext () =
  List.iter
    (fun tnum ->
      Fun.protect
        ~finally:(fun () -> Range.set_tnum true)
        (fun () ->
          Range.set_tnum tnum;
          List.iter
            (fun w ->
              let hi = Int64.(sub (shift_left 1L (8 * w)) 1L) in
              Alcotest.(check bool)
                (Printf.sprintf "zext %d (tnum %b)" w tnum)
                true
                (Range.equal (Range.zext w) (Range.unsigned 0L hi)))
            [ 1; 2; 4 ]))
    [ true; false ]

let test_fits_unsigned () =
  let r = Range.unsigned 10L 100L in
  Alcotest.(check bool) "inside" true (Range.fits_unsigned r ~lo:0L ~hi:100L);
  Alcotest.(check bool) "tight" true (Range.fits_unsigned r ~lo:10L ~hi:100L);
  Alcotest.(check bool) "above" false (Range.fits_unsigned r ~lo:0L ~hi:99L);
  Alcotest.(check bool) "below" false (Range.fits_unsigned r ~lo:11L ~hi:100L);
  Alcotest.(check bool) "top never fits" false
    (Range.fits_unsigned Range.top ~lo:0L ~hi:Int64.max_int)

let test_masking_bounds () =
  (* the guard-elision pattern: (x & 1023) * 8 + 64 is within [64, 8248] *)
  let x = Range.top in
  let masked = Range.logand x (Range.const 1023L) in
  let scaled = Range.mul masked (Range.const 8L) in
  let off = Range.add scaled (Range.const 64L) in
  Alcotest.(check bool) "fits heap" true
    (Range.fits_unsigned off ~lo:0L ~hi:16384L)

let () =
  Alcotest.run "range"
    ([
       ( "unit",
         [
           Alcotest.test_case "fits_unsigned" `Quick test_fits_unsigned;
           Alcotest.test_case "mask-scale-add bounds" `Quick test_masking_bounds;
           Alcotest.test_case "zext = unsigned" `Quick test_zext;
         ] );
     ]
    @ [
        ( "props",
          List.map QCheck_alcotest.to_alcotest
            (soundness_tests @ refine_tests
            @ [
                prop_negate_cond; prop_join_subset; prop_const_exact;
                prop_neg_sound; prop_refine_negate_consistent;
              ]) );
        ( "tnum props",
          List.map QCheck_alcotest.to_alcotest
            (tnum_soundness_tests
            @ [
                prop_tnum_neg; prop_tnum_const_exact; prop_tnum_range;
                prop_tnum_lattice; prop_tnum_within_mask;
                prop_tnum_mul_reference; prop_tnum_within_range;
              ]) );
        ( "join props",
          List.map QCheck_alcotest.to_alcotest
            [ prop_value_leq_exact; prop_state_leq_exact ]
        );
      ])
