open Kflex_bpf

type slot = S_empty | S_misc | S_spill of Value.t

type resource = { id : int; klass : string; destructor : string }

type t = {
  regs : Value.t array;
  stack : slot array;
  res : resource list;
  origin : int array;
}

let nslots = Prog.stack_size / 8

let slot_of_full_store disp width =
  let b = Prog.stack_size + disp in
  if width = 8 && b >= 0 && b + 8 <= Prog.stack_size && b mod 8 = 0 then
    Some (b / 8)
  else None

let overlapping_slots disp width =
  let b = Prog.stack_size + disp in
  let lo = max 0 b and hi = min Prog.stack_size (b + width) in
  if hi <= lo then []
  else List.init (((hi - 1) / 8) - (lo / 8) + 1) (fun i -> (lo / 8) + i)

let init ~ctx_nullable =
  let regs = Array.make 11 Value.Uninit in
  regs.(1) <-
    Value.Ptr { kind = Value.Ctx; off = Range.const 0L; nullable = ctx_nullable };
  regs.(10) <- Value.Ptr { kind = Value.Stack; off = Range.const 0L; nullable = false };
  {
    regs;
    stack = Array.make nslots S_empty;
    res = [];
    origin = Array.make 11 (-1);
  }

let get st r = st.regs.(Reg.to_int r)

(* --- working copies --------------------------------------------------- *)

type work = {
  mutable cur : t;
  (* which arrays of [cur] are private to this copy; the others are shared
     with published states and copied before their first write *)
  mutable own_regs : bool;
  mutable own_origin : bool;
  mutable own_stack : bool;
}

let work st =
  { cur = st; own_regs = false; own_origin = false; own_stack = false }
let view w = w.cur

let publish w =
  w.own_regs <- false;
  w.own_origin <- false;
  w.own_stack <- false;
  w.cur

(* Register-file copies built inline: at 11 elements, [Array.copy]'s C
   call costs more than the copy. Monomorphic, so no float-array check. *)
let copy_regs (a : Value.t array) =
  [| a.(0); a.(1); a.(2); a.(3); a.(4); a.(5); a.(6); a.(7); a.(8); a.(9); a.(10) |]

let copy_origin (a : int array) =
  [| a.(0); a.(1); a.(2); a.(3); a.(4); a.(5); a.(6); a.(7); a.(8); a.(9); a.(10) |]

let regs_w w =
  if not w.own_regs then begin
    w.cur <- { w.cur with regs = copy_regs w.cur.regs };
    w.own_regs <- true
  end;
  w.cur.regs

let origin_w w =
  if not w.own_origin then begin
    w.cur <- { w.cur with origin = copy_origin w.cur.origin };
    w.own_origin <- true
  end;
  w.cur.origin

let stack_w w =
  if not w.own_stack then begin
    w.cur <- { w.cur with stack = Array.copy w.cur.stack };
    w.own_stack <- true
  end;
  w.cur.stack

let set_from_slot w r v slot =
  let i = Reg.to_int r in
  (regs_w w).(i) <- v;
  (* most registers mirror nothing before and after *)
  if w.cur.origin.(i) <> slot then (origin_w w).(i) <- slot

let set w r v = set_from_slot w r v (-1)

let refine_mirrored w r v =
  let i = Reg.to_int r in
  (regs_w w).(i) <- v;
  let slot = w.cur.origin.(i) in
  if slot >= 0 then
    match w.cur.stack.(slot) with
    | S_spill _ -> (stack_w w).(slot) <- S_spill v
    | _ -> ()

let clobber_slot w slot = (stack_w w).(slot) <- S_misc

let rec mirrors origin slot i =
  i < Array.length origin && (origin.(i) = slot || mirrors origin slot (i + 1))

(* the scan first: most stack writes invalidate no register *)
let write_slot w slot s =
  (stack_w w).(slot) <- s;
  if mirrors w.cur.origin slot 0 then begin
    let origin = origin_w w in
    Array.iteri (fun i o -> if o = slot then origin.(i) <- -1) origin
  end

let slot_equal a b =
  match (a, b) with
  | S_empty, S_empty | S_misc, S_misc -> true
  | S_spill x, S_spill y -> Value.equal x y
  | _ -> false

let res_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (x : resource) y -> x.id = y.id && x.klass = y.klass) a b

(* States share most array elements, and often whole arrays, with the
   states they were derived from, so the array walks below test physical
   equality before calling [f]. The shortcut cannot change a result:
   [equal x x] and [leq x x] hold, and [join x x] and [widen x x] return
   [x] itself (for slots too, since a spilled value is never [Uninit]). *)

(* [Array.for_all2 f a b] *)
let rec all_from f a b i =
  i = Array.length a
  || ((a.(i) == b.(i) || f a.(i) b.(i)) && all_from f a b (i + 1))

let for_all2 f a b = a == b || all_from f a b 0

let app f a b i = if a.(i) == b.(i) then a.(i) else f a.(i) b.(i)

let rec share_from f a b i =
  if i = Array.length a then a
  else
    let x = app f a b i in
    if x == a.(i) then share_from f a b (i + 1)
    else begin
      let r = Array.copy a in
      r.(i) <- x;
      for j = i + 1 to Array.length a - 1 do
        r.(j) <- app f a b j
      done;
      r
    end

(* [Array.map2 f a b], but [a] itself when every [f x y] is physically its
   [x]: a join or widening that changes nothing in an array shares it, so
   later walks short-cut on physical equality. *)
let map2_share f a b = if a == b then a else share_from f a b 0

let equal a b =
  for_all2 Value.equal a.regs b.regs
  && for_all2 slot_equal a.stack b.stack
  && res_equal a.res b.res
  && for_all2 Int.equal a.origin b.origin

let slot_join a b =
  match (a, b) with
  | S_empty, _ | _, S_empty -> S_empty
  | S_misc, S_misc -> S_misc
  | S_spill x, S_spill y -> (
      match Value.join x y with
      | Value.Uninit -> S_empty
      | v -> if v == x then a else S_spill v)
  | S_misc, S_spill v | S_spill v, S_misc -> (
      (* scalar bytes meet a spilled value: survives only as untrusted data *)
      match v with
      | Value.Scalar _ | Value.Unknown -> S_misc
      | _ -> S_empty)

let join_origin o o' = if o = o' then o else -1

let join a b =
  if not (res_equal a.res b.res) then
    Error
      (Format.asprintf "resource sets differ at join: {%s} vs {%s}"
         (String.concat "," (List.map (fun r -> r.klass) a.res))
         (String.concat "," (List.map (fun r -> r.klass) b.res)))
  else
    Ok
      {
        regs = map2_share Value.join a.regs b.regs;
        stack = map2_share slot_join a.stack b.stack;
        res = a.res;
        origin = map2_share join_origin a.origin b.origin;
      }

(* [slot_join b a] equals [b] *)
let slot_leq a b =
  match (b, a) with
  | S_empty, _ -> true
  | _, S_empty -> false
  | S_misc, S_misc -> true
  | S_misc, S_spill v -> (
      match v with Value.Scalar _ | Value.Unknown -> true | _ -> false)
  | S_spill y, S_spill x -> (
      match y with Value.Uninit -> false | _ -> Value.leq x y)
  | S_spill _, S_misc -> false

(* [join_origin b a] equals [b] *)
let origin_leq a b = b = -1 || b = a

let leq a b =
  res_equal a.res b.res
  && for_all2 Value.leq a.regs b.regs
  && for_all2 slot_leq a.stack b.stack
  && for_all2 origin_leq a.origin b.origin

(* Widening drops the interval half (which can keep creeping) but keeps the
   known-bits half: the tnum lattice is finite and only loses bits under
   join, so retaining it cannot prevent termination — and it is exactly
   what preserves alignment facts (index*8 etc.) across loop iterations. *)
let widen_value v ~prev =
  match (prev, v) with
  | Value.Scalar p, Value.Scalar n when not (Range.equal p n) ->
      Value.Scalar (Range.top_with_bits (Range.bits n))
  | Value.Ptr p, Value.Ptr n when p.kind = n.kind && not (Range.equal p.off n.off)
    ->
      Value.Ptr { n with off = Range.top_with_bits (Range.bits n.off) }
  | _ -> v

let widen_slot s prev =
  match (prev, s) with
  | S_spill p, S_spill n ->
      let v = widen_value n ~prev:p in
      if v == n then s else S_spill v
  | _ -> s

let widen ~prev st =
  let regs = map2_share (fun v prev -> widen_value v ~prev) st.regs prev.regs in
  let stack = map2_share widen_slot st.stack prev.stack in
  if regs == st.regs && stack == st.stack then st else { st with regs; stack }

let add_res w r =
  w.cur <-
    {
      w.cur with
      res = List.sort (fun a b -> Int.compare a.id b.id) (r :: w.cur.res);
    }

let remove_res w id =
  w.cur <- { w.cur with res = List.filter (fun r -> r.id <> id) w.cur.res }

let has_res st id = List.exists (fun r -> r.id = id) st.res

type loc = L_reg of Reg.t | L_slot of int

(* The first register from [i] up holding object [id], or -1. *)
let rec reg_holding st id i =
  if i = 11 then -1
  else
    match st.regs.(i) with
    | Value.Obj o when o.id = id -> i
    | _ -> reg_holding st id (i + 1)

(* The first stack slot from [i] on, stepping by [step], holding object
   [id], or -1. *)
let rec slot_holding st id i step =
  if i < 0 || i = nslots then -1
  else
    match st.stack.(i) with
    | S_spill (Value.Obj o) when o.id = id -> i
    | _ -> slot_holding st id (i + step) step

let find_obj st id =
  let r = reg_holding st id 0 in
  if r >= 0 then Some (L_reg (Reg.of_int r))
  else
    let s = slot_holding st id 0 1 in
    if s >= 0 then Some (L_slot s) else None

(* The leak check runs after every instruction that leaves a resource held:
   allocation-free, and it scans the stack from the frame top, where
   compiled code spills its variables. *)
let rec first_leaked st = function
  | [] -> None
  | r :: rest ->
      if
        reg_holding st r.id 0 >= 0
        || slot_holding st r.id (nslots - 1) (-1) >= 0
      then first_leaked st rest
      else Some r

let leaked st = first_leaked st st.res

let substitute_obj w ~id v =
  Array.iteri
    (fun i x ->
      match x with
      | Value.Obj o when o.id = id -> (regs_w w).(i) <- v
      | _ -> ())
    w.cur.regs;
  Array.iteri
    (fun i s ->
      match s with
      | S_spill (Value.Obj o) when o.id = id ->
          (stack_w w).(i) <-
            (match v with Value.Uninit -> S_empty | v -> S_spill v)
      | _ -> ())
    w.cur.stack

let set_nonnull_obj w ~id =
  Array.iteri
    (fun i x ->
      match x with
      | Value.Obj o when o.id = id ->
          (regs_w w).(i) <- Value.Obj { o with nullable = false }
      | _ -> ())
    w.cur.regs;
  Array.iteri
    (fun i s ->
      match s with
      | S_spill (Value.Obj o) when o.id = id ->
          (stack_w w).(i) <- S_spill (Value.Obj { o with nullable = false })
      | _ -> ())
    w.cur.stack

let pp ppf st =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i v ->
      if not (Value.equal v Value.Uninit) then
        Format.fprintf ppf "r%d=%a " i Value.pp v)
    st.regs;
  if st.res <> [] then
    Format.fprintf ppf "held:{%s}"
      (String.concat ","
         (List.map (fun r -> Printf.sprintf "%s#%d" r.klass r.id) st.res));
  Format.fprintf ppf "@]"
