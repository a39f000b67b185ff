(* Self-test of the benchmark's correctness oracle.  It feeds the oracle
   one corrupted reply and one acknowledged key that went missing after a
   restart, and checks that both are counted in failed_frac; clean inputs
   next to them must count nothing. *)

module W = Kvserve.Wire
module Gen = Perfbench.Gen
module Oracle = Perfbench.Oracle

let key = Util.Keys.encode_int

let check name ok =
  Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let () =
  let tally = Oracle.tally () in
  (* Replies: a clean get/scan request, then the same with one corrupted
     value (the value of key 8 returned for key 7). *)
  let req =
    { W.rid = 5; ops = [ W.Get (key 7); W.Scan (key 9, 3); W.Put (key 7, 1) ] }
  in
  let scanned =
    W.Scanned (List.map (fun k -> (key k, Gen.preload_value k)) [ 9; 10; 11 ])
  in
  let good =
    { W.rrid = 5; status = W.Ok;
      replies = [ W.Found (Gen.preload_value 7); scanned; W.Done true ] }
  in
  let corrupt =
    { good with replies = [ W.Found (Gen.preload_value 8); scanned; W.Done true ] }
  in
  let dense = Some 100 in
  check "clean reply counts no failure" (Oracle.check_response ~dense req good = 0);
  check "corrupted get value counts one failed op"
    (Oracle.check_response ~dense req corrupt = 1);
  check "scan with a hole counts one failed op"
    (Oracle.check_response ~dense req
       { good with
         replies =
           [ W.Found (Gen.preload_value 7);
             W.Scanned (List.map (fun k -> (key k, Gen.preload_value k)) [ 9; 11; 12 ]);
             W.Done true ] }
     = 1);
  check "txn reply of the wrong arity fails every member"
    (Oracle.check_response ~dense:None
       { W.rid = 1; ops = [ W.Txn [ W.Put (key 1, 1); W.Delete (key 2) ] ] }
       { W.rrid = 1; status = W.Ok; replies = [ W.Txn_ok [ W.Done true ] ] }
     = 2);
  Oracle.add tally ~attempted:(Oracle.ops_of_request req)
    ~failed:(Oracle.check_response ~dense req corrupt);
  (* Restart check on a small crash-restart stream: both clients had every
     request acknowledged; the served state is the model's, except that
     one acknowledged key is missing. *)
  let w =
    { (Option.get (Gen.find "crash-restart")) with Gen.preload = 64 }
  in
  let streams = Array.init 2 (Gen.gen_stream w ~seed:3 ~nreq:20 ~zipf:None) in
  let acked = [| 20; 20 |] and inflight = [| None; None |] in
  let model = Oracle.model streams ~acked in
  let served k =
    match Hashtbl.find_opt model k with
    | Some (Oracle.Exact v) -> Some v
    | Some Oracle.Gone -> None
    | None -> if k <= w.Gen.preload then Some (Gen.preload_value k) else None
  in
  let keys = List.init w.Gen.preload (fun i -> i + 1) in
  let dropped = List.hd (List.filter (fun k -> Hashtbl.mem model k) keys) in
  let verify lookup = Oracle.verify w streams ~acked ~inflight ~keys ~lookup in
  check "intact state counts no failure" ((verify served).Oracle.lost = 0);
  let rep = verify (fun k -> if k = dropped then None else served k) in
  check "dropped acked key counts one failure" (rep.Oracle.lost = 1);
  Oracle.add tally ~attempted:0 ~failed:rep.Oracle.lost;
  (* A request cut off by the crash may survive or vanish — but a
     transaction must do so whole. *)
  let r_txn =
    let rec find r = if Gen.is_txn streams.(0) r then r else find (r + 1) in
    find 0
  in
  let acked_cut = [| r_txn; 20 |] and cut = [| Some r_txn; None |] in
  let model_cut = Oracle.model streams ~acked:acked_cut in
  let before k =
    match Hashtbl.find_opt model_cut k with
    | Some (Oracle.Exact v) -> Some v
    | _ -> if k <= w.Gen.preload then Some (Gen.preload_value k) else None
  in
  let s0 = streams.(0) in
  let first = s0.Gen.starts.(r_txn) in
  let half k =
    if k = Gen.key_of s0.Gen.ops.(first) then Some (Gen.put_value s0 first)
    else before k
  in
  let rep_none =
    Oracle.verify w streams ~acked:acked_cut ~inflight:cut ~keys ~lookup:before
  in
  check "cut-off txn that vanished whole is fine"
    (rep_none.Oracle.lost = 0 && rep_none.Oracle.unacked_lost = Gen.txn_members);
  let rep_half =
    Oracle.verify w streams ~acked:acked_cut ~inflight:cut ~keys ~lookup:half
  in
  check "cut-off txn applied in part is a failure" (rep_half.Oracle.partial = 1);
  let frac = Oracle.failed_frac tally in
  check
    (Printf.sprintf "failed_frac counts both (%d/%d)" tally.Oracle.failed
       tally.Oracle.attempted)
    (tally.Oracle.failed = 2 && frac = 2. /. 3.)
