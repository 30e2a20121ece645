open Kflex_bpf
open Kflex_verifier

type options = {
  performance_mode : bool;
  translate_on_store : bool;
  kmod_baseline : bool;
  no_elision : bool;
}

let default_options =
  {
    performance_mode = false;
    translate_on_store = false;
    kmod_baseline = false;
    no_elision = false;
  }

let forced_guards = { default_options with no_elision = true }

type obj_entry = { klass : string; destructor : string; loc : State.loc }

type cp_kind = C1 | C2

type cp = {
  cp_id : int;
  kind : cp_kind;
  orig_pc : int;
  new_pc : int;
  table : obj_entry list;
}

type t = {
  prog : Prog.t;
  cps : cp array;
  report : Report.t;
  pc_map : int array;
  orig_of_new : int array;
  tables : obj_entry list array;
}

let table_of_res_at (analysis : Verify.analysis) pc =
  List.map
    (fun (e : Verify.res_entry) ->
      {
        klass = e.Verify.res.State.klass;
        destructor = e.Verify.res.State.destructor;
        loc = e.Verify.loc;
      })
    analysis.Verify.res_at.(pc)

let run ?(options = default_options) (analysis : Verify.analysis) =
  let prog = analysis.Verify.prog in
  let n = Prog.length prog in
  let access_at = Hashtbl.create 64 in
  List.iter
    (fun (a : Verify.heap_access) -> Hashtbl.replace access_at a.Verify.pc a)
    analysis.Verify.heap_accesses;
  let c1_at = Hashtbl.create 8 in
  List.iter
    (fun (l : Cfg.loop) -> Hashtbl.replace c1_at l.Cfg.back_edge_pc ())
    analysis.Verify.unbounded;
  (* Pass 1: decide insertions and replacements per original pc. *)
  let counted = ref 0
  and elided = ref 0
  and emitted = ref 0
  and formation = ref 0
  and unguarded_reads = ref 0
  and checkpoints = ref 0
  and xlates = ref 0 in
  let next_cp = ref 0 in
  (* (inserted insns in order, was_checkpoint flag per insertion) *)
  let inserted = Array.make n [] in
  let replacement = Array.make n None in
  for pc = 0 to n - 1 do
    let ins = ref [] in
    if Hashtbl.mem c1_at pc && not options.kmod_baseline then begin
      let id = !next_cp in
      incr next_cp;
      incr checkpoints;
      ins := Insn.Checkpoint id :: !ins
    end;
    (match (if options.kmod_baseline then None else Hashtbl.find_opt access_at pc) with
    | None -> ()
    | Some a ->
        let writeish = a.Verify.is_store || a.Verify.is_atomic in
        if a.Verify.formation then begin
          if options.performance_mode && not writeish then
            incr unguarded_reads
          else begin
            incr formation;
            ins :=
              Insn.Guard
                ((if writeish then Insn.Gwrite else Insn.Gread), a.Verify.addr_reg)
              :: !ins
          end
        end
        else begin
          incr counted;
          if a.Verify.elidable && not options.no_elision then incr elided
          else if options.performance_mode && not writeish then
            incr unguarded_reads
          else begin
            incr emitted;
            ins :=
              Insn.Guard
                ((if writeish then Insn.Gwrite else Insn.Gread), a.Verify.addr_reg)
              :: !ins
          end
        end;
        if writeish && a.Verify.stored_ptr && options.translate_on_store then
          match Prog.get prog pc with
          | Insn.Stx (sz, d, off, s) ->
              incr xlates;
              replacement.(pc) <- Some (Insn.Xstore (sz, d, off, s))
          | _ -> ());
    inserted.(pc) <- List.rev !ins
  done;
  (* Pass 2: layout. *)
  let pc_map = Array.make n 0 in
  let pos = ref 0 in
  for pc = 0 to n - 1 do
    pc_map.(pc) <- !pos;
    pos := !pos + List.length inserted.(pc) + 1
  done;
  let total = !pos in
  let new_pos_of_orig pc = pc_map.(pc) + List.length inserted.(pc) in
  let out = Array.make total Insn.Exit in
  for pc = 0 to n - 1 do
    List.iteri (fun i insn -> out.(pc_map.(pc) + i) <- insn) inserted.(pc);
    let body =
      match replacement.(pc) with Some r -> r | None -> Prog.get prog pc
    in
    let body =
      match body with
      | Insn.Ja off ->
          let target = pc + 1 + off in
          Insn.Ja (pc_map.(target) - new_pos_of_orig pc - 1)
      | Insn.Jcond (c, r, s, off) ->
          let target = pc + 1 + off in
          Insn.Jcond (c, r, s, pc_map.(target) - new_pos_of_orig pc - 1)
      | i -> i
    in
    out.(new_pos_of_orig pc) <- body
  done;
  (* Pass 3: cancellation points. C1 = inserted checkpoints; C2 = every heap
     access (its page may be unpopulated). *)
  let cps = ref [] in
  let cp_counter = ref 0 in
  for pc = 0 to n - 1 do
    List.iteri
      (fun i insn ->
        match insn with
        | Insn.Checkpoint _ ->
            let id = !cp_counter in
            incr cp_counter;
            cps :=
              {
                cp_id = id;
                kind = C1;
                orig_pc = pc;
                new_pc = pc_map.(pc) + i;
                table = table_of_res_at analysis pc;
              }
              :: !cps
        | _ -> ())
      inserted.(pc);
    if Hashtbl.mem access_at pc then begin
      let id = !cp_counter in
      incr cp_counter;
      cps :=
        {
          cp_id = id;
          kind = C2;
          orig_pc = pc;
          new_pc = new_pos_of_orig pc;
          table = table_of_res_at analysis pc;
        }
        :: !cps
    end
  done;
  let cps =
    Array.of_list (List.sort (fun a b -> Int.compare a.cp_id b.cp_id) !cps)
  in
  (* Renumber Checkpoint instructions to their cp ids. *)
  Array.iter
    (fun cp ->
      match (cp.kind, out.(cp.new_pc)) with
      | C1, Insn.Checkpoint _ -> out.(cp.new_pc) <- Insn.Checkpoint cp.cp_id
      | C1, _ -> assert false
      | C2, _ -> ())
    cps;
  let report =
    {
      Report.counted_sites = !counted;
      elided = !elided;
      emitted = !emitted;
      formation = !formation;
      reads_unguarded = !unguarded_reads;
      checkpoints = !checkpoints;
      xlate_stores = !xlates;
    }
  in
  let prog' =
    Prog.create ~allow_instrumentation:true
      ~name:(Prog.name prog ^ ".kie")
      out
  in
  let orig_of_new = Array.make total 0 in
  for pc = 0 to n - 1 do
    let first = pc_map.(pc) in
    let last = if pc + 1 < n then pc_map.(pc + 1) - 1 else total - 1 in
    for i = first to last do
      orig_of_new.(i) <- pc
    done
  done;
  let tables = Array.init n (fun pc -> table_of_res_at analysis pc) in
  { prog = prog'; cps; report; pc_map; orig_of_new; tables }
