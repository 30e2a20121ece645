(* Prints one line per program: the verifier's verdict and, on acceptance, a
   digest of a canonical rendering of the whole analysis — per-pc register
   and stack states, object-table locations, heap accesses, branch
   verdicts, redundant masks, reached blocks and stack use. The dune rule
   in test/dune diffs the output against test/verify_golden.txt, so any
   change to what the verifier concludes about any of these programs shows
   up as a failing diff. After an intended analysis change:

     dune build @verify-golden   # read the diff
     dune promote                # accept it

   Programs: the shipped eclang examples, the §5.1 tenants, the Figure 5
   structures, the committed fuzz reproducers and 200 seeded generator
   programs.

     dune exec test/verify_golden.exe -- EXAMPLES_DIR CORPUS_DIR *)

open Kflex_verifier
module Compile = Kflex_eclang.Compile
module Hook = Kflex_kernel.Hook
module Rng = Kflex_workload.Rng

(* --- canonical rendering ---------------------------------------------------- *)

let range b (r : Range.t) =
  let t = Range.bits r in
  Printf.bprintf b "[%Lx,%Lx|%Ld,%Ld|%Lx/%Lx]" r.umin r.umax r.smin r.smax
    t.Tnum.value t.Tnum.mask

let value b (v : Value.t) =
  match v with
  | Value.Uninit -> Buffer.add_char b '_'
  | Value.Unknown -> Buffer.add_char b '?'
  | Value.Scalar r ->
      Buffer.add_char b 's';
      range b r
  | Value.Ptr p ->
      Printf.bprintf b "%s%s"
        (Format.asprintf "%a" Value.pp_ptr_kind p.kind)
        (if p.nullable then "?" else "");
      range b p.off
  | Value.Obj o ->
      Printf.bprintf b "obj<%s#%d>%s" o.klass o.id (if o.nullable then "?" else "")

let state b (st : State.t) =
  Array.iteri
    (fun i v ->
      Printf.bprintf b " r%d=" i;
      value b v;
      if st.origin.(i) >= 0 then Printf.bprintf b "@%d" st.origin.(i))
    st.regs;
  Array.iteri
    (fun i s ->
      match s with
      | State.S_empty -> ()
      | State.S_misc -> Printf.bprintf b " s%d=misc" i
      | State.S_spill v ->
          Printf.bprintf b " s%d=" i;
          value b v)
    st.stack;
  List.iter
    (fun (r : State.resource) ->
      Printf.bprintf b " held:%s#%d/%s" r.klass r.id r.destructor)
    st.res

let loc b = function
  | State.L_reg r -> Printf.bprintf b "r%d" (Kflex_bpf.Reg.to_int r)
  | State.L_slot i -> Printf.bprintf b "s%d" i

let render (a : Verify.analysis) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "insns %d stack_used %d\n" a.insn_count a.stack_used;
  Array.iteri
    (fun pc st ->
      Printf.bprintf b "%d:" pc;
      (match st with None -> Buffer.add_string b " -" | Some st -> state b st);
      List.iter
        (fun (e : Verify.res_entry) ->
          Printf.bprintf b " at:%s#%d=" e.res.klass e.res.id;
          loc b e.loc)
        a.res_at.(pc);
      Buffer.add_char b '\n')
    a.states_at;
  List.iter
    (fun (h : Verify.heap_access) ->
      Printf.bprintf b "access %d st=%b at=%b w=%d r%d el=%b form=%b sp=%b eff="
        h.pc h.is_store h.is_atomic h.width
        (Kflex_bpf.Reg.to_int h.addr_reg)
        h.elidable h.formation h.stored_ptr;
      range b h.eff;
      Buffer.add_char b '\n')
    a.heap_accesses;
  List.iter
    (fun (l : Kflex_bpf.Cfg.loop) ->
      Printf.bprintf b "unbounded %d->%d at %d\n" l.back_edge_src l.header
        l.back_edge_pc)
    a.unbounded;
  List.iter
    (fun (pc, v) ->
      Printf.bprintf b "verdict %d %s\n" pc
        (match v with
        | Verify.Always_taken -> "always"
        | Verify.Never_taken -> "never"))
    a.verdicts;
  List.iter
    (fun (pc, m) -> Printf.bprintf b "mask %d %Lx\n" pc m)
    a.redundant_masks;
  Buffer.add_string b "reached";
  Array.iter (fun r -> Buffer.add_char b (if r then '1' else '0')) a.reached;
  Buffer.contents b

let line name = function
  | Error e -> Format.printf "%s: rejected %a@." name Verify.pp_error e
  | Ok (a : Verify.analysis) ->
      let elided =
        List.length (List.filter (fun h -> h.Verify.elidable) a.heap_accesses)
      in
      Format.printf "%s: ok insns=%d accesses=%d elided=%d %s@." name
        a.insn_count
        (List.length a.heap_accesses)
        elided
        (Digest.to_hex (Digest.string (render a)))

(* --- the programs ----------------------------------------------------------- *)

let verify ?(mode = Verify.Kflex) ?heap_bits ?(hook = Hook.Xdp) prog =
  Verify.run ~mode ~contracts:Kflex.contracts ~ctx_size:Hook.ctx_size
    ?heap_size:(Option.map (fun b -> Int64.shift_left 1L b) heap_bits)
    ~sleepable:(Hook.sleepable hook) prog

let ec ?use_heap ?mode ?(heap_bits = Some 24) ?hook name src =
  let prog = (Compile.compile_string ?use_heap ~name src).Compile.prog in
  line name (verify ?mode ?heap_bits ?hook prog)

let sorted_files dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

let () =
  let examples_dir, corpus_dir =
    match Sys.argv with
    | [| _; e; c |] -> (e, c)
    | _ ->
        prerr_endline "usage: verify_golden EXAMPLES_DIR CORPUS_DIR";
        exit 2
  in
  List.iter
    (fun f ->
      ec ("examples/" ^ f)
        (In_channel.with_open_bin (Filename.concat examples_dir f)
           In_channel.input_all))
    (sorted_files examples_dir ".ec");
  (* the §5.1 tenants, as the serving front end attaches them *)
  let module R = Kflex_apps.Ratelimit in
  ec "memcached" Kflex_apps.Memcached.kflex_source;
  ec ~use_heap:false ~mode:Verify.Ebpf ~heap_bits:None "bmc"
    Kflex_apps.Memcached.bmc_source;
  ec ~hook:Hook.Sk_skb "redis" Kflex_apps.Redis.source;
  ec ~heap_bits:(Some 12) ~hook:Hook.Sk_skb "ratelimit_bucket"
    (R.bucket_source ~pass:0L ~drop:1L ~capacity:96 ~window_ns:4096L);
  ec ~heap_bits:(Some 12) ~hook:Hook.Sk_skb "conntrack"
    (R.conntrack_source ~pass:0L ~drop:1L);
  (* the Figure 5 structures: dispatching, per-operation and chain form *)
  let module D = Kflex_apps.Datastructs in
  List.iter
    (fun k ->
      let n = D.name k in
      ec n (D.source k);
      ec (n ^ ".update") (D.op_source k `Update);
      ec (n ^ ".lookup") (D.op_source k `Lookup);
      ec (n ^ ".delete") (D.op_source k `Delete);
      ec (n ^ ".chain") (D.chain_source k))
    D.all;
  List.iter
    (fun f ->
      let r = Kflex_fuzz.Corpus.read (Filename.concat corpus_dir f) in
      let heap_size = r.config.Kflex_fuzz.Oracle.heap_size in
      let run name prog =
        line name
          (Verify.run ~mode:Verify.Kflex ~contracts:Kflex.contracts
             ~ctx_size:Hook.ctx_size ~heap_size prog)
      in
      run ("corpus/" ^ f) r.prog;
      Option.iter (run ("corpus/" ^ f ^ "#2")) r.prog2)
    (sorted_files corpus_dir ".kfxr");
  (* seeded generator programs; ones that fail to assemble still count *)
  let rng = Rng.create ~seed:0x601dL in
  for i = 0 to 199 do
    let heap_bits = Rng.choose rng [| 12; 14; 16 |] in
    let items =
      Kflex_fuzz.Gen.generate ~rng:(Rng.split rng)
        ~heap_size:(Int64.shift_left 1L heap_bits) ~port:53 ()
    in
    let name = Printf.sprintf "fuzz%03d" i in
    match Kflex_fuzz.Gen.assemble items with
    | exception _ -> Format.printf "%s: does not assemble@." name
    | prog -> line name (verify ~heap_bits prog)
  done
