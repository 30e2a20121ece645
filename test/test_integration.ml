(* Integration and fault-injection tests.

   The property under test is the paper's core safety claim: no matter what
   an extension does to its own memory — including when the host corrupts
   the heap under it — the KERNEL stays safe: execution always ends
   (Finished or Cancelled, never a runaway or an interpreter crash), every
   acquired kernel resource is released, and the hook receives a valid
   return code. Extension-level correctness may be destroyed; kernel safety
   may not. *)

open Kflex_runtime
open Kflex_kernel

(* Listing 1 of the paper, end to end. *)
let listing1_src = {|
struct elem { key: u64; value: u64; next: ptr<elem>; prev: ptr<elem>; }
global head: ptr<elem>;
global lock: u64;

fn prog(c: ctx) -> u64 {
  var key: u64 = pkt_read_u64(c, 0);
  var op: u64 = pkt_read_u8(c, 8);
  var tup: bytes[16];
  st16(&tup, 0, 11211);
  var h: u64 = kflex_spin_lock(&lock);
  if (op == 2) {
    var n: ptr<elem> = new elem;
    if (n == null) { kflex_spin_unlock(h); return 1; }
    n.key = key;
    n.value = pkt_read_u64(c, 9);
    n.next = head;
    if (head != null) { head.prev = n; }
    head = n;
    kflex_spin_unlock(h);
    return 1;
  }
  var e: ptr<elem> = head;
  while (e != null) {
    if (e.key != key) { e = e.next; continue; }
    var sk: u64 = bpf_sk_lookup_udp(c, &tup, 16, 0, 0);
    if (sk == 0) { break; }
    if (op == 0) { e.value = pkt_read_u64(c, 9); }
    else {
      if (e.prev != null) { e.prev.next = e.next; } else { head = e.next; }
      if (e.next != null) { e.next.prev = e.prev; }
      free e;
    }
    bpf_sk_release(sk);
    break;
  }
  kflex_spin_unlock(h);
  return 1;
}
|}

let mk_pkt ~key ~op ~value =
  let b = Bytes.make 32 '\000' in
  Bytes.set_int64_le b 0 key;
  Bytes.set b 8 (Char.chr op);
  Bytes.set_int64_le b 9 value;
  Packet.make ~proto:Packet.Udp ~src_port:5555 ~dst_port:11211 b

let load_listing1 ?(quantum = 200_000) () =
  let compiled = Kflex_eclang.Compile.compile_string ~name:"listing1" listing1_src in
  let kernel = Helpers.create () in
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Udp ~port:11211;
  let heap = Heap.create ~size:(Int64.shift_left 1L 20) () in
  match
    Kflex.load ~kernel ~heap ~quantum
      ~globals_size:compiled.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
      ~hook:Hook.Xdp compiled.Kflex_eclang.Compile.prog
  with
  | Ok l -> (l, compiled, heap, kernel)
  | Error e ->
      Alcotest.failf "listing1 rejected: %a" Kflex_verifier.Verify.pp_error e

let t_listing1_scenario () =
  let loaded, compiled, heap, kernel = load_listing1 () in
  let run pkt = Kflex.run_packet loaded pkt in
  ignore (run (mk_pkt ~key:7L ~op:2 ~value:42L));
  ignore (run (mk_pkt ~key:9L ~op:2 ~value:43L));
  ignore (run (mk_pkt ~key:7L ~op:0 ~value:100L));
  ignore (run (mk_pkt ~key:9L ~op:1 ~value:0L));
  let head_off = Kflex_eclang.Compile.global_offset compiled "head" in
  let head = Heap.read_off heap ~width:8 head_off in
  let off = Option.get (Heap.offset_of_addr heap head) in
  let voff, _ = Kflex_eclang.Compile.field_offset compiled ~struct_:"elem" "value" in
  Alcotest.(check int64) "key 7 remains" 7L (Heap.read_off heap ~width:8 off);
  Alcotest.(check int64) "value updated" 100L
    (Heap.read_off heap ~width:8 (Int64.add off (Int64.of_int voff)));
  Alcotest.(check int) "no socket refs" 0 (Socket.total_refs (Helpers.sockets kernel));
  match loaded.Kflex.alloc with
  | Some a -> Alcotest.(check int) "one live block" 1 (Alloc.live_blocks a)
  | None -> Alcotest.fail "no allocator"

let t_cycle_cancellation_releases_lock () =
  let loaded, compiled, heap, kernel = load_listing1 () in
  ignore (Kflex.run_packet loaded (mk_pkt ~key:1L ~op:2 ~value:1L));
  (* corrupt: make the list circular *)
  let head_off = Kflex_eclang.Compile.global_offset compiled "head" in
  let head = Heap.read_off heap ~width:8 head_off in
  let off = Option.get (Heap.offset_of_addr heap head) in
  let noff, _ = Kflex_eclang.Compile.field_offset compiled ~struct_:"elem" "next" in
  Heap.write_off heap ~width:8 (Int64.add off (Int64.of_int noff)) head;
  (match Kflex.run_packet loaded (mk_pkt ~key:999L ~op:0 ~value:0L) with
  | Vm.Cancelled { reason = Vm.Quantum_expired; released; ret; ledger_leaked; _ } ->
      Alcotest.(check (list string)) "lock released" [ "kflex_lock" ]
        (List.map fst released);
      Alcotest.(check int64) "default ret" Hook.xdp_pass ret;
      Alcotest.(check int) "ledger clean" 0 ledger_leaked
  | Vm.Cancelled _ -> Alcotest.fail "wrong cancellation reason"
  | Vm.Finished _ -> Alcotest.fail "must cancel");
  Alcotest.(check int64) "lock word free" 0L
    (Heap.read_off heap ~width:8 (Kflex_eclang.Compile.global_offset compiled "lock"));
  Alcotest.(check int) "no socket refs" 0 (Socket.total_refs (Helpers.sockets kernel))

(* Fault injection: random ops interleaved with random heap corruption.
   Kernel-safety invariants must hold on every single run. *)
let t_fault_injection () =
  let loaded, compiled, heap, kernel = load_listing1 ~quantum:60_000 () in
  let rng = Kflex_workload.Rng.create ~seed:4242L in
  let globals = compiled.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size in
  ignore globals;
  let cancels = ref 0 and finishes = ref 0 in
  for i = 1 to 400 do
    (* corruption every few ops: write junk somewhere in the heap *)
    if i mod 4 = 0 then begin
      let off = Int64.of_int (64 + Kflex_workload.Rng.int rng 8192) in
      Heap.populate heap ~off ~len:8L;
      Heap.write_off heap ~width:8 off (Kflex_workload.Rng.next rng)
    end;
    let key = Int64.of_int (Kflex_workload.Rng.int rng 40) in
    let op = Kflex_workload.Rng.int rng 3 in
    let pkt = mk_pkt ~key ~op ~value:(Kflex_workload.Rng.next rng) in
    (match Kflex.run_packet loaded pkt with
    | Vm.Finished _ -> incr finishes
    | Vm.Cancelled { ledger_leaked; ret; _ } ->
        incr cancels;
        Alcotest.(check int) "ledger clean" 0 ledger_leaked;
        Alcotest.(check int64) "default ret" Hook.xdp_pass ret;
        (* §4.3: cancellation poisons the extension; reload for the test *)
        Vm.reset_cancel loaded.Kflex.ext;
        (* free the lock like the unwinder did; corruption may have left
           garbage in the lock word itself *)
        Heap.write_off heap ~width:8
          (Kflex_eclang.Compile.global_offset compiled "lock") 0L);
    Alcotest.(check int) "socket refs always return to 0" 0
      (Socket.total_refs (Helpers.sockets kernel))
  done;
  Alcotest.(check bool) "ran to completion" true (!cancels + !finishes = 400)

(* The §4.3 cross-CPU policy: one CPU's cancellation cancels the extension
   everywhere; the heap survives for user space (§3.4). *)
let t_cancellation_scope () =
  let loaded, compiled, heap, _ = load_listing1 ~quantum:20_000 () in
  ignore (Kflex.run_packet loaded (mk_pkt ~key:1L ~op:2 ~value:7L));
  let head_off = Kflex_eclang.Compile.global_offset compiled "head" in
  let head = Heap.read_off heap ~width:8 head_off in
  let off = Option.get (Heap.offset_of_addr heap head) in
  let noff, _ = Kflex_eclang.Compile.field_offset compiled ~struct_:"elem" "next" in
  Heap.write_off heap ~width:8 (Int64.add off (Int64.of_int noff)) head;
  (match Kflex.run_packet loaded ~cpu:0 (mk_pkt ~key:99L ~op:0 ~value:0L) with
  | Vm.Cancelled _ -> ()
  | Vm.Finished _ -> Alcotest.fail "must cancel");
  (* a later invocation on another CPU reaches its first checkpoint and is
     cancelled too *)
  (match Kflex.run_packet loaded ~cpu:3 (mk_pkt ~key:99L ~op:0 ~value:0L) with
  | Vm.Cancelled { reason = Vm.Ext_cancelled; _ } -> ()
  | Vm.Cancelled _ -> Alcotest.fail "expected ext-wide cancellation"
  | Vm.Finished _ -> Alcotest.fail "other CPUs must be cancelled too");
  (* the heap is NOT destroyed: user-visible state is intact (§3.4) *)
  Alcotest.(check int64) "entry still readable" 1L (Heap.read_off heap ~width:8 off)

(* Serialisation: a program survives an encode/decode trip through the
   loader and still runs. *)
let t_encode_load_roundtrip () =
  let compiled = Kflex_eclang.Compile.compile_string ~name:"rt" listing1_src in
  let blob = Kflex_bpf.Encode.encode compiled.Kflex_eclang.Compile.prog in
  let prog = Kflex_bpf.Encode.decode blob in
  let kernel = Helpers.create () in
  Socket.listen (Helpers.sockets kernel) ~proto:Packet.Udp ~port:11211;
  let heap = Heap.create ~size:(Int64.shift_left 1L 20) () in
  match
    Kflex.load ~kernel ~heap
      ~globals_size:compiled.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
      ~hook:Hook.Xdp prog
  with
  | Error e -> Alcotest.failf "decoded program rejected: %a" Kflex_verifier.Verify.pp_error e
  | Ok loaded -> (
      match Kflex.run_packet loaded (mk_pkt ~key:3L ~op:2 ~value:4L) with
      | Vm.Finished v -> Alcotest.(check int64) "runs" 1L v
      | Vm.Cancelled _ -> Alcotest.fail "cancelled")

(* Backward compatibility (§3): a stock eBPF extension (BMC) loads in Ebpf
   mode and also, unmodified, in Kflex mode. *)
let t_backward_compat () =
  let compiled =
    Kflex_eclang.Compile.compile_string ~name:"bmc" ~use_heap:false
      Kflex_apps.Memcached.bmc_source
  in
  let kernel = Helpers.create () in
  (match
     Kflex.load ~mode:Kflex_verifier.Verify.Ebpf ~kernel ~hook:Hook.Xdp
       compiled.Kflex_eclang.Compile.prog
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ebpf load: %a" Kflex_verifier.Verify.pp_error e);
  match
    Kflex.load ~mode:Kflex_verifier.Verify.Kflex ~kernel ~hook:Hook.Xdp
      compiled.Kflex_eclang.Compile.prog
  with
  | Ok loaded ->
      Alcotest.(check int) "no instrumentation needed" 0
        loaded.Kflex.kie.Kflex_kie.Instrument.report.Kflex_kie.Report.emitted
  | Error e -> Alcotest.failf "kflex load: %a" Kflex_verifier.Verify.pp_error e

(* Every loaded extension owns its bpf_get_prandom_u32 stream and
   bpf_ktime_get_ns clock: running one never advances another's, and two
   fresh loads of the same program draw identical sequences — on either
   backend. *)
let t_helper_stream_isolation () =
  let open Kflex_bpf in
  let prog =
    Asm.assemble ~name:"streams"
      Asm.
        [
          call "bpf_get_prandom_u32";
          mov Reg.R6 Reg.R0;
          call "bpf_ktime_get_ns";
          alui Insn.Lsh Reg.R6 32L;
          alu Insn.Or Reg.R0 Reg.R6;
          exit_;
        ]
  in
  List.iter
    (fun backend ->
      let load () =
        match
          Kflex.load ~kernel:(Helpers.create ()) ~backend ~hook:Hook.Xdp prog
        with
        | Ok l -> l
        | Error e -> Alcotest.failf "load: %a" Kflex_verifier.Verify.pp_error e
      in
      let pkt = Packet.make ~proto:Packet.Udp ~src_port:1 ~dst_port:2 Bytes.empty in
      let draw l =
        match Kflex.run_packet l pkt with
        | Vm.Finished v -> v
        | Vm.Cancelled _ -> Alcotest.fail "streams program cancelled"
      in
      let draws l n = List.init n (fun _ -> draw l) in
      let a = load () and b = load () in
      let seq_a = draws a 3 in
      Alcotest.(check (list int64)) "clock ticks from 1 per extension"
        [ 1L; 2L; 3L ]
        (List.map (fun v -> Int64.logand v 0xffff_ffffL) seq_a);
      Alcotest.(check (list int64)) "fresh loads draw identical sequences"
        seq_a (draws b 3);
      let c = load () and d = load () in
      let c1 = draw c in
      ignore (draws d 5 : int64 list);
      let c2 = draw c in
      Alcotest.(check (list int64)) "a sibling's runs leave the stream alone"
        [ List.nth seq_a 0; List.nth seq_a 1 ]
        [ c1; c2 ])
    [ `Interp; `Compiled ]

let () =
  Alcotest.run "integration"
    [
      ( "integration",
        [
          Alcotest.test_case "listing 1 scenario" `Quick t_listing1_scenario;
          Alcotest.test_case "cycle cancellation" `Quick
            t_cycle_cancellation_releases_lock;
          Alcotest.test_case "fault injection" `Slow t_fault_injection;
          Alcotest.test_case "cancellation scope" `Quick t_cancellation_scope;
          Alcotest.test_case "encode/load roundtrip" `Quick
            t_encode_load_roundtrip;
          Alcotest.test_case "backward compatibility" `Quick t_backward_compat;
          Alcotest.test_case "helper stream isolation" `Quick
            t_helper_stream_isolation;
        ] );
    ]
