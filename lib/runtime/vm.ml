open Kflex_bpf

(* The execution-state machinery (stats, call_ctx, memory windows, the
   reusable register/stack context) lives in [Machine], shared between this
   interpreter and the compiled backend in [Jit]. The aliases below keep
   [Vm] as the single public surface. *)

type fault_reason = Machine.fault_reason =
  | Page_fault
  | Guard_zone
  | Wild_access
  | Quantum_expired
  | Lock_stall
  | Ext_cancelled

type stats = Machine.stats = {
  mutable insns : int;
  mutable guards : int;
  mutable checkpoints : int;
  mutable helper_calls : int;
  mutable helper_cost : int;
}

let fresh_stats = Machine.fresh_stats
let total_cost = Machine.total_cost

type outcome = Machine.outcome =
  | Finished of int64
  | Cancelled of {
      orig_pc : int;
      reason : fault_reason;
      released : (string * string) list;
      ret : int64;
      ledger_leaked : int;
    }

type call_ctx = Machine.call_ctx = {
  args : U64.bank;
  mutable cpu : int;
  heap : Heap.t option;
  alloc : Alloc.t option;
  ledger : Ledger.t;
  mem_read : width:int -> int64 -> int64;
  mem_write : width:int -> int64 -> int64 -> unit;
  charge : int -> unit;
}

type helper = Machine.helper

exception Helper_stall = Machine.Helper_stall

let arg = Machine.arg
let set_ret = Machine.set_ret

exception Vm_fault = Machine.Vm_fault

let stack_base = Machine.stack_base
let ctx_base = Machine.ctx_base

(* --- builtin helpers -------------------------------------------------- *)

let get_heap c = match c.heap with Some h -> h | None -> raise (Vm_fault Wild_access)
let get_alloc c = match c.alloc with Some a -> a | None -> raise (Vm_fault Wild_access)

let h_malloc c =
  let a = get_alloc c in
  c.charge 20;
  match Alloc.alloc a ~cpu:c.cpu (arg c 0) with
  | Some off -> set_ret c (Int64.add (Heap.kbase (get_heap c)) off)
  | None -> set_ret c 0L

let h_free c =
  if arg c 0 = 0L then set_ret c 0L
  else begin
    let a = get_alloc c in
    let h = get_heap c in
    c.charge 15;
    let addr = Heap.sanitize h (arg c 0) in
    let off = Int64.sub addr (Heap.kbase h) in
    ignore (Alloc.free a ~cpu:c.cpu off);
    set_ret c 0L
  end

(* Spin locks live in heap words: 0 = free, owner-tag otherwise. In the
   single-threaded VM a held lock cannot be released concurrently, so a
   contended acquire is a stall — precisely the §3.4 scenario where the
   extension eventually cancels. *)
let h_spin_lock c =
  let h = get_heap c in
  let addr = Heap.sanitize h (arg c 0) in
  c.charge 4;
  let v = Heap.read h ~width:8 addr in
  if v = 0L then begin
    Heap.write h ~width:8 addr (Int64.of_int (c.cpu + 1));
    Ledger.acquire c.ledger ~handle:addr ~destructor:"kflex_spin_unlock";
    set_ret c addr
  end
  else raise Helper_stall

let h_spin_unlock c =
  let h = get_heap c in
  let addr = Heap.sanitize h (arg c 0) in
  c.charge 4;
  Heap.write h ~width:8 addr 0L;
  ignore (Ledger.release c.ledger ~handle:addr);
  set_ret c 0L

let h_heap_base c = set_ret c (Heap.kbase (get_heap c))

(* The PRNG and virtual clock behind [bpf_get_prandom_u32] /
   [bpf_ktime_get_ns] are constructors over caller-owned state: every
   extension gets its own pair in [create] (per-CPU in the kernel), and the
   engine shadows them with one pair per shard, so streams are
   deterministic and race-free however events interleave. The state is a
   {!U64.cell}, not an [int64 ref] — updating a ref boxes the new value on
   every call, which would be the last allocation left on the
   helper-bearing hot paths. *)

let prandom_helper (state : U64.cell) : helper =
 fun c ->
  (* xorshift64*; deterministic for reproducible runs *)
  let x = U64.cell_get state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  U64.cell_set state x;
  set_ret c (Int64.logand x 0xffff_ffffL)

let ktime_helper (clock : U64.cell) : helper =
 fun c ->
  let t = Int64.add (U64.cell_get clock) 1L in
  U64.cell_set clock t;
  set_ret c t

let h_cpu c = set_ret c (Int64.of_int c.cpu)

let builtin_helpers () =
  [
    ("kflex_malloc", h_malloc);
    ("kflex_free", h_free);
    ("kflex_spin_lock", h_spin_lock);
    ("kflex_spin_unlock", h_spin_unlock);
    ("kflex_heap_base", h_heap_base);
    ("bpf_get_prandom_u32", prandom_helper (U64.cell 0x853c49e6748fea9bL));
    ("bpf_ktime_get_ns", ktime_helper (U64.cell 0L));
    ("bpf_get_smp_processor_id", h_cpu);
  ]

(* --- extensions ------------------------------------------------------- *)

type backend = [ `Interp | `Compiled ]

type ext = {
  kie : Kflex_kie.Instrument.t;
  heap : Heap.t option;
  alloc : Alloc.t option;
  helpers : (string, helper) Hashtbl.t;
  quantum : int;
  default_ret : int64;
  on_cancel : (int64 -> int64) option;
  cancel_flag : bool ref;
  mutable exec_state : Machine.state option;
      (* the reusable execution context (satellite: hoisted allocations) *)
  mutable jit : (Jit.t * helper array) option;
      (* compiled form + helper table linked against [helpers]; when
         installed, every hook-free [exec] runs it *)
}

let create ?heap ?alloc ?(quantum = 100_000_000) ?(default_ret = 0L) ?on_cancel
    ~helpers kie =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (n, h) -> Hashtbl.replace tbl n h) (builtin_helpers ());
  List.iter (fun (n, h) -> Hashtbl.replace tbl n h) helpers;
  {
    kie;
    heap;
    alloc;
    helpers = tbl;
    quantum;
    default_ret;
    on_cancel;
    cancel_flag = ref false;
    exec_state = None;
    jit = None;
  }

let cancel e = e.cancel_flag := true
let cancelled e = !(e.cancel_flag)
let reset_cancel e = e.cancel_flag := false
let kie e = e.kie

(* --- compiled backend plumbing ---------------------------------------- *)

let link_helpers e names =
  Array.map
    (fun n ->
      match Hashtbl.find_opt e.helpers n with
      | Some h -> h
      | None -> fun _ -> failwith ("Vm.exec: unknown helper " ^ n))
    names

let set_compiled e t = e.jit <- Some (t, link_helpers e (Jit.helper_names t))

let precompile ?fuse e =
  let t = Jit.compile ?fuse e.kie.Kflex_kie.Instrument.prog in
  set_compiled e t;
  t

(* --- execution context reuse ------------------------------------------ *)

let acquire_state e =
  match e.exec_state with
  | Some st when not st.Machine.in_use ->
      st.Machine.in_use <- true;
      st
  | Some _ ->
      (* reentrant invocation (e.g. a helper running an extension): give it
         a throwaway context rather than corrupting the live one *)
      Machine.create_state ?heap:e.heap ?alloc:e.alloc ~quantum:e.quantum
        ~cancel:e.cancel_flag ()
  | None ->
      let st =
        Machine.create_state ?heap:e.heap ?alloc:e.alloc ~quantum:e.quantum
          ~cancel:e.cancel_flag ()
      in
      st.Machine.in_use <- true;
      e.exec_state <- Some st;
      st

(* --- helper dispatch --------------------------------------------------- *)

(* Marshal r1-r5 into the unboxed argument bank, pre-clear the return slot,
   run the helper, and hand its return slot back to r0. A [Helper_stall]
   cancels the extension at the call site (§3.4). *)
let[@inline always] call_helper e (st : Machine.state) h =
  let call_ctx = st.Machine.call_ctx in
  let regs = st.Machine.regs in
  U64.set call_ctx.args 0 (U64.get regs 1);
  U64.set call_ctx.args 1 (U64.get regs 2);
  U64.set call_ctx.args 2 (U64.get regs 3);
  U64.set call_ctx.args 3 (U64.get regs 4);
  U64.set call_ctx.args 4 (U64.get regs 5);
  U64.set call_ctx.args Machine.ret_slot 0L;
  (try h call_ctx
   with Helper_stall ->
     e.cancel_flag := true;
     raise (Vm_fault Lock_stall));
  U64.set regs 0 (U64.get call_ctx.args Machine.ret_slot)

let find_helper e name =
  match Hashtbl.find_opt e.helpers name with
  | Some h -> h
  | None -> failwith ("Vm.exec: unknown helper " ^ name)

(* --- the interpreter -------------------------------------------------- *)

let[@inline always] src_val regs s =
  match s with Insn.Reg r -> U64.get regs (Reg.to_int r) | Insn.Imm i -> i

let[@inline always] heap_of (st : Machine.state) =
  match st.Machine.heap with Some h -> h | None -> raise (Vm_fault Wild_access)

(* The [*terminate] load at a [Checkpoint]: one unit of cost; the watchdog
   (quantum measured in cost units per invocation). *)
let[@inline always] checkpoint e (st : Machine.state) =
  let stats = st.Machine.stats in
  stats.checkpoints <- stats.checkpoints + 1;
  if !(e.cancel_flag) then raise (Vm_fault Ext_cancelled);
  if total_cost stats - st.Machine.start_cost > e.quantum then begin
    e.cancel_flag := true;
    raise (Vm_fault Quantum_expired)
  end

(* Cancellation-injection sites: every Checkpoint (C1) plus every memory
   access that leaves the stack/ctx windows (a potential C2 fault). *)
let is_site (st : Machine.state) insn =
  let regs = st.Machine.regs in
  let outside r off sz =
    let addr = Int64.add (U64.get regs (Reg.to_int r)) (Int64.of_int off) in
    let width = Insn.size_bytes sz in
    not
      (Machine.in_window stack_base Prog.stack_size addr width
      || Machine.in_window ctx_base st.Machine.ctx_size addr width)
  in
  match insn with
  | Insn.Checkpoint _ -> true
  | Insn.Ldx (sz, _, s, off) -> outside s off sz
  | Insn.Stx (sz, d, off, _)
  | Insn.St (sz, d, off, _)
  | Insn.Xstore (sz, d, off, _)
  | Insn.Atomic (_, sz, d, off, _) ->
      outside d off sz
  | _ -> false

(* The one interpreter loop. [exec] calls it twice over: with a literal
   [~hooked:false] every [if hooked] folds away at compile time, leaving no
   per-instruction hook test on the default path; with [~hooked:true] each
   instruction first passes the observation points, in this order:
   [on_insn] (sees the boxed snapshot array, refreshed from the live bank),
   the retired-insn count, the checkpoint watchdog, then [on_site], which
   sees sites in execution order and may cancel as if a sibling CPU had
   (§4.3). Registers live in the unboxed bank; all arithmetic goes through
   [Machine.eval_*], which inline here and keep the values out of the
   heap. *)
let[@inline always] interp ~hooked e (st : Machine.state) ~on_insn ~on_site =
  let insns = Prog.insns e.kie.Kflex_kie.Instrument.prog in
  let regs = st.Machine.regs in
  let stats = st.Machine.stats in
  let pc = ref 0 in
  let running = ref true in
  let ret = ref 0L in
  (try
     while !running do
       let insn = insns.(!pc) in
       if hooked then begin
         match on_insn with
         | Some f ->
             Machine.sync_snap st;
             f !pc st.Machine.reg_snap
         | None -> ()
       end;
       stats.insns <- stats.insns + 1;
       if hooked then begin
         (match insn with Insn.Checkpoint _ -> checkpoint e st | _ -> ());
         match on_site with
         | Some f -> if is_site st insn && f () then raise (Vm_fault Ext_cancelled)
         | None -> ()
       end;
       match insn with
       | Insn.Mov (d, s) ->
           U64.set regs (Reg.to_int d) (src_val regs s);
           incr pc
       | Insn.Neg d ->
           let d = Reg.to_int d in
           U64.set regs d (Int64.neg (U64.get regs d));
           incr pc
       | Insn.Alu (op, d, s) ->
           let d = Reg.to_int d in
           U64.set regs d (Machine.eval_alu op (U64.get regs d) (src_val regs s));
           incr pc
       | Insn.Ldx (sz, d, s, off) ->
           let addr =
             Int64.add (U64.get regs (Reg.to_int s)) (Int64.of_int off)
           in
           U64.set regs (Reg.to_int d)
             (Machine.read st ~width:(Insn.size_bytes sz) addr);
           incr pc
       | Insn.Stx (sz, d, off, s) ->
           let addr =
             Int64.add (U64.get regs (Reg.to_int d)) (Int64.of_int off)
           in
           Machine.write st ~width:(Insn.size_bytes sz) addr
             (U64.get regs (Reg.to_int s));
           incr pc
       | Insn.St (sz, d, off, imm) ->
           let addr =
             Int64.add (U64.get regs (Reg.to_int d)) (Int64.of_int off)
           in
           Machine.write st ~width:(Insn.size_bytes sz) addr imm;
           incr pc
       | Insn.Xstore (sz, d, off, s) ->
           let h = heap_of st in
           let addr =
             Int64.add (U64.get regs (Reg.to_int d)) (Int64.of_int off)
           in
           let v = U64.get regs (Reg.to_int s) in
           let v = if Heap.is_shared h then Heap.translate_user h v else v in
           Machine.write st ~width:(Insn.size_bytes sz) addr v;
           incr pc
       | Insn.Guard (_, r) ->
           let h = heap_of st in
           stats.guards <- stats.guards + 1;
           let r = Reg.to_int r in
           U64.set regs r (Heap.sanitize h (U64.get regs r));
           incr pc
       | Insn.Checkpoint _ ->
           (* the hooked loop already ran the watchdog, before [on_site] *)
           if not hooked then checkpoint e st;
           incr pc
       | Insn.Atomic (op, sz, d, off, s) ->
           let width = Insn.size_bytes sz in
           let addr =
             Int64.add (U64.get regs (Reg.to_int d)) (Int64.of_int off)
           in
           let old = Machine.read st ~width addr in
           let s = Reg.to_int s in
           let sv = U64.get regs s in
           (match op with
           | Insn.Atomic_add -> Machine.write st ~width addr (Int64.add old sv)
           | Insn.Atomic_or -> Machine.write st ~width addr (Int64.logor old sv)
           | Insn.Atomic_and ->
               Machine.write st ~width addr (Int64.logand old sv)
           | Insn.Atomic_xor ->
               Machine.write st ~width addr (Int64.logxor old sv)
           | Insn.Fetch_add ->
               Machine.write st ~width addr (Int64.add old sv);
               U64.set regs s old
           | Insn.Fetch_or ->
               Machine.write st ~width addr (Int64.logor old sv);
               U64.set regs s old
           | Insn.Fetch_and ->
               Machine.write st ~width addr (Int64.logand old sv);
               U64.set regs s old
           | Insn.Fetch_xor ->
               Machine.write st ~width addr (Int64.logxor old sv);
               U64.set regs s old
           | Insn.Xchg ->
               Machine.write st ~width addr sv;
               U64.set regs s old
           | Insn.Cmpxchg ->
               if old = U64.get regs 0 then Machine.write st ~width addr sv;
               U64.set regs 0 old);
           incr pc
       | Insn.Ja off -> pc := !pc + 1 + off
       | Insn.Jcond (c, a, s, off) ->
           if Machine.eval_cond c (U64.get regs (Reg.to_int a)) (src_val regs s)
           then pc := !pc + 1 + off
           else incr pc
       | Insn.Call name ->
           stats.helper_calls <- stats.helper_calls + 1;
           call_helper e st (find_helper e name);
           incr pc
       | Insn.Exit ->
           ret := U64.get regs 0;
           running := false
     done
   with exn ->
     st.Machine.fault_pc <- !pc;
     raise exn);
  Finished !ret

(* Cancellation: unwind via the static object table of the faulting
   cancellation point (§3.3). *)
let unwind e (st : Machine.state) exn =
  let reason =
    match exn with
    | Vm_fault r -> r
    | Heap.Fault { reason = Heap.Unpopulated_page; _ } -> Page_fault
    | Heap.Fault { reason = Heap.Guard_zone_hit; _ } -> Guard_zone
    | Heap.Fault { reason = Heap.Wild_address; _ } -> Wild_access
    | _ -> assert false
  in
  let regs = st.Machine.regs in
  let stack = st.Machine.stack in
  let call_ctx = st.Machine.call_ctx in
  let orig_pc = e.kie.Kflex_kie.Instrument.orig_of_new.(st.Machine.fault_pc) in
  let table = e.kie.Kflex_kie.Instrument.tables.(orig_pc) in
  let released = ref [] in
  List.iter
    (fun (entry : Kflex_kie.Instrument.obj_entry) ->
      let v =
        match entry.Kflex_kie.Instrument.loc with
        | Kflex_verifier.State.L_reg r -> U64.get regs (Reg.to_int r)
        | Kflex_verifier.State.L_slot i -> Bytes.get_int64_le stack (i * 8)
      in
      if v <> 0L then begin
        (match
           Hashtbl.find_opt e.helpers entry.Kflex_kie.Instrument.destructor
         with
        | Some d -> (
            for i = 0 to 4 do
              U64.set call_ctx.args i 0L
            done;
            U64.set call_ctx.args 0 v;
            U64.set call_ctx.args Machine.ret_slot 0L;
            (* a stalling destructor cannot stall the unwind: the old ABI's
               [H_stall] result was ignored here, so the exception is too *)
            try d call_ctx with Helper_stall -> ())
        | None -> ());
        released :=
          (entry.Kflex_kie.Instrument.klass, entry.Kflex_kie.Instrument.destructor)
          :: !released
      end)
    table;
  let ret =
    match e.on_cancel with Some f -> f e.default_ret | None -> e.default_ret
  in
  Cancelled
    {
      orig_pc;
      reason;
      released = List.rev !released;
      ret;
      ledger_leaked = Ledger.count st.Machine.ledger;
    }

(* --- the boxed reference interpreter ----------------------------------- *)

(* The pre-refactor representation, kept alive as the differential oracle's
   ground truth: a boxed [int64 array] register file and [Stdlib.Int64]
   arithmetic everywhere — including the stdlib's unsigned division — with
   the width-dispatched generic memory path for every access. Deliberately
   shares no ALU/comparison code with [Machine]: the whole point is that an
   unboxing bug in the new representation (wrap-around, sign extension,
   shift masking, division edge cases) cannot also be present here.

   Heap, ledger, helpers, stack bytes and outcome plumbing are shared with
   the live state — the reference covers the VM's value representation, not
   the world around it — so outcomes, stats, payloads and heap snapshots
   must come out bit-identical to both unboxed backends. *)
module Ref_interp = struct
  let u_lt a b = Int64.unsigned_compare a b < 0
  let u_le a b = Int64.unsigned_compare a b <= 0

  let eval_cond c a b =
    match c with
    | Insn.Eq -> Int64.equal a b
    | Insn.Ne -> not (Int64.equal a b)
    | Insn.Lt -> u_lt a b
    | Insn.Le -> u_le a b
    | Insn.Gt -> u_lt b a
    | Insn.Ge -> u_le b a
    | Insn.Slt -> Int64.compare a b < 0
    | Insn.Sle -> Int64.compare a b <= 0
    | Insn.Sgt -> Int64.compare a b > 0
    | Insn.Sge -> Int64.compare a b >= 0
    | Insn.Set -> Int64.logand a b <> 0L

  let eval_alu op a b =
    match op with
    | Insn.Add -> Int64.add a b
    | Insn.Sub -> Int64.sub a b
    | Insn.Mul -> Int64.mul a b
    | Insn.Div -> if b = 0L then 0L else Int64.unsigned_div a b
    | Insn.Mod -> if b = 0L then a else Int64.unsigned_rem a b
    | Insn.And -> Int64.logand a b
    | Insn.Or -> Int64.logor a b
    | Insn.Xor -> Int64.logxor a b
    | Insn.Lsh -> Int64.shift_left a (Int64.to_int b land 63)
    | Insn.Rsh -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | Insn.Arsh -> Int64.shift_right a (Int64.to_int b land 63)

  let exec e ~ctx ?(cpu = 0) ?stats ?on_insn () =
    let stats = match stats with Some s -> s | None -> fresh_stats () in
    let st = acquire_state e in
    Fun.protect
      ~finally:(fun () -> st.Machine.in_use <- false)
      (fun () ->
        Machine.reset_state st ~ctx ~cpu ~stats;
        let insns = Prog.insns e.kie.Kflex_kie.Instrument.prog in
        let regs = Array.make 11 0L in
        regs.(1) <- ctx_base;
        regs.(10) <- Int64.add stack_base (Int64.of_int Prog.stack_size);
        let call_ctx = st.Machine.call_ctx in
        let start_cost = st.Machine.start_cost in
        (* unwind and helpers read registers from the live bank *)
        let sync_regs () =
          for i = 0 to 10 do
            U64.set st.Machine.regs i regs.(i)
          done
        in
        let src_val = function
          | Insn.Reg r -> regs.(Reg.to_int r)
          | Insn.Imm i -> i
        in
        let pc = ref 0 in
        let running = ref true in
        let ret = ref 0L in
        try
          (try
             while !running do
               let insn = insns.(!pc) in
               (match on_insn with Some f -> f !pc regs | None -> ());
               stats.insns <- stats.insns + 1;
               match insn with
               | Insn.Mov (d, s) ->
                   regs.(Reg.to_int d) <- src_val s;
                   incr pc
               | Insn.Neg d ->
                   regs.(Reg.to_int d) <- Int64.neg regs.(Reg.to_int d);
                   incr pc
               | Insn.Alu (op, d, s) ->
                   regs.(Reg.to_int d) <-
                     eval_alu op regs.(Reg.to_int d) (src_val s);
                   incr pc
               | Insn.Ldx (sz, d, s, off) ->
                   let addr =
                     Int64.add regs.(Reg.to_int s) (Int64.of_int off)
                   in
                   regs.(Reg.to_int d) <-
                     Machine.read st ~width:(Insn.size_bytes sz) addr;
                   incr pc
               | Insn.Stx (sz, d, off, s) ->
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   Machine.write st ~width:(Insn.size_bytes sz) addr
                     regs.(Reg.to_int s);
                   incr pc
               | Insn.St (sz, d, off, imm) ->
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   Machine.write st ~width:(Insn.size_bytes sz) addr imm;
                   incr pc
               | Insn.Xstore (sz, d, off, s) ->
                   let h =
                     match st.Machine.heap with
                     | Some h -> h
                     | None -> raise (Vm_fault Wild_access)
                   in
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   let v = regs.(Reg.to_int s) in
                   let v =
                     if Heap.is_shared h then Heap.translate_user h v else v
                   in
                   Machine.write st ~width:(Insn.size_bytes sz) addr v;
                   incr pc
               | Insn.Guard (_, r) ->
                   let h =
                     match st.Machine.heap with
                     | Some h -> h
                     | None -> raise (Vm_fault Wild_access)
                   in
                   stats.guards <- stats.guards + 1;
                   regs.(Reg.to_int r) <-
                     Int64.logor (Heap.kbase h)
                       (Int64.logand regs.(Reg.to_int r) (Heap.mask h));
                   incr pc
               | Insn.Checkpoint _ ->
                   stats.checkpoints <- stats.checkpoints + 1;
                   if !(e.cancel_flag) then raise (Vm_fault Ext_cancelled);
                   if total_cost stats - start_cost > e.quantum then begin
                     e.cancel_flag := true;
                     raise (Vm_fault Quantum_expired)
                   end;
                   incr pc
               | Insn.Atomic (op, sz, d, off, s) ->
                   let width = Insn.size_bytes sz in
                   let addr =
                     Int64.add regs.(Reg.to_int d) (Int64.of_int off)
                   in
                   let old = Machine.read st ~width addr in
                   let sv = regs.(Reg.to_int s) in
                   (match op with
                   | Insn.Atomic_add ->
                       Machine.write st ~width addr (Int64.add old sv)
                   | Insn.Atomic_or ->
                       Machine.write st ~width addr (Int64.logor old sv)
                   | Insn.Atomic_and ->
                       Machine.write st ~width addr (Int64.logand old sv)
                   | Insn.Atomic_xor ->
                       Machine.write st ~width addr (Int64.logxor old sv)
                   | Insn.Fetch_add ->
                       Machine.write st ~width addr (Int64.add old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_or ->
                       Machine.write st ~width addr (Int64.logor old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_and ->
                       Machine.write st ~width addr (Int64.logand old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Fetch_xor ->
                       Machine.write st ~width addr (Int64.logxor old sv);
                       regs.(Reg.to_int s) <- old
                   | Insn.Xchg ->
                       Machine.write st ~width addr sv;
                       regs.(Reg.to_int s) <- old
                   | Insn.Cmpxchg ->
                       if old = regs.(0) then Machine.write st ~width addr sv;
                       regs.(0) <- old);
                   incr pc
               | Insn.Ja off -> pc := !pc + 1 + off
               | Insn.Jcond (c, a, s, off) ->
                   if eval_cond c regs.(Reg.to_int a) (src_val s) then
                     pc := !pc + 1 + off
                   else incr pc
               | Insn.Call name ->
                   stats.helper_calls <- stats.helper_calls + 1;
                   let h = find_helper e name in
                   for i = 0 to 4 do
                     U64.set call_ctx.args i regs.(i + 1)
                   done;
                   U64.set call_ctx.args Machine.ret_slot 0L;
                   (try h call_ctx
                    with Helper_stall ->
                      e.cancel_flag := true;
                      raise (Vm_fault Lock_stall));
                   regs.(0) <- U64.get call_ctx.args Machine.ret_slot;
                   incr pc
               | Insn.Exit ->
                   ret := regs.(0);
                   running := false
             done
           with exn ->
             st.Machine.fault_pc <- !pc;
             raise exn);
          Finished !ret
        with
        | (Vm_fault _ | Heap.Fault _) as exn ->
            sync_regs ();
            unwind e st exn)
end

(* The installed compiled form is the only backend selector, like the
   kernel's [prog->bpf_func] fixed at load. *)
let exec e ~ctx ?(cpu = 0) ?stats ?on_insn ?on_site () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let st = acquire_state e in
  Fun.protect
    ~finally:(fun () -> st.Machine.in_use <- false)
    (fun () ->
      Machine.reset_state st ~ctx ~cpu ~stats;
      try
        match (e.jit, on_insn, on_site) with
        | Some (t, helpers), None, None ->
            st.Machine.helpers <- helpers;
            Jit.run t st;
            Finished st.Machine.ret
        | None, None, None ->
            interp ~hooked:false e st ~on_insn:None ~on_site:None
        | _ ->
            (* hooks force the interpreter: observation points only exist
               there *)
            interp ~hooked:true e st ~on_insn ~on_site
      with (Vm_fault _ | Heap.Fault _) as exn -> unwind e st exn)
