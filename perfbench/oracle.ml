(* Correctness oracle for every benchmark run.

   Two checks, both pure so the self-test can feed them bad data:

   - [check_response] judges one reply against the request that was sent:
     gets must return a value that encodes their own key (every key a get
     names is live), puts and deletes must report [Done true], scans must
     be ascending, start at or after their start key, hold values that
     encode their keys and — where keys [1..n] are all live — be exactly
     the consecutive run from the start key, and [Txn_ok] must carry one
     correct reply per member.  It returns the number of failed ops.

   - [verify] judges the served state after a restart against a model of
     what the clients had acknowledged.  In the disjoint-range workloads
     (each client owns its keys) the model is exact: the last acked value
     of every key, a deleted key absent.  The request a client had in
     flight when the server was killed was never acknowledged, so its
     writes may or may not have survived; an in-flight transaction must
     have survived whole or not at all.

   Failed ops are tallied against attempted ops; [failed_frac] is reported
   as measured, with nothing filtered. *)

module Wire = Kvserve.Wire

let key_int s = if String.length s = 8 then Util.Keys.decode_int s else -1

let encodes key v = v >= 0 && Gen.key_of_value v = key

(* Scan replies: ascending, within range, values encode keys; with
   [dense = Some top] the reply must be exactly [start .. start+n-1]
   clipped to [top]. *)
let check_scan ~dense start n items =
  let rec go prev count = function
    | [] -> (
        count <= n
        &&
        match dense with
        | Some top -> count = max 0 (min n (top - start + 1))
        | None -> true)
    | (ks, v) :: rest ->
        let k = key_int ks in
        k >= start && k > prev && encodes k v
        && (match dense with
           | Some _ -> k = if prev < 0 then start else prev + 1
           | None -> true)
        && go k (count + 1) rest
  in
  go (-1) 0 items

let check_op ~dense op reply =
  match (op, reply) with
  | Wire.Get k, Wire.Found v -> encodes (key_int k) v
  | (Wire.Put _ | Wire.Delete _), Wire.Done true -> true
  | Wire.Scan (k, n), Wire.Scanned items -> check_scan ~dense (key_int k) n items
  | _ -> false

let op_count = function Wire.Txn ms -> List.length ms | _ -> 1
let ops_of_request (req : Wire.request) = List.fold_left (fun a op -> a + op_count op) 0 req.ops

(** Failed ops of one request given its reply (0 = all correct). *)
let check_response ~dense (req : Wire.request) (resp : Wire.response) =
  let total = ops_of_request req in
  if resp.Wire.status <> Wire.Ok || resp.Wire.rrid <> req.Wire.rid then total
  else if List.length resp.Wire.replies <> List.length req.Wire.ops then total
  else
    List.fold_left2
      (fun bad op reply ->
        match (op, reply) with
        | Wire.Txn ms, Wire.Txn_ok rs when List.length rs = List.length ms ->
            List.fold_left2
              (fun b m r -> if check_op ~dense m r then b else b + 1)
              bad ms rs
        | Wire.Txn ms, _ -> bad + List.length ms
        | op, reply -> if check_op ~dense op reply then bad else bad + 1)
      0 req.Wire.ops resp.Wire.replies

(* --- state after restart -------------------------------------------------- *)

type expect = Exact of int | Gone

type report = {
  checked : int;  (** keys read back *)
  lost : int;  (** acked state missing or wrong *)
  partial : int;  (** in-flight transactions found half applied *)
  unacked_lost : int;  (** in-flight writes that did not survive *)
}

(* Whether each client owns its keys, which makes the model exact. *)
let owned (w : Gen.workload) =
  match w.Gen.kind with
  | Gen.Txn_clht | Gen.Crash_restart -> true
  | Gen.Put_zipf | Gen.Get_scan -> false

(* Final state of every key the acked prefix of each stream wrote. *)
let model streams ~acked =
  let tbl = Hashtbl.create 4096 in
  Array.iteri
    (fun c s ->
      for i = 0 to s.Gen.starts.(acked.(c)) - 1 do
        let p = s.Gen.ops.(i) in
        let key = Gen.key_of p in
        match Gen.code_of p with
        | 1 -> Hashtbl.replace tbl key (Exact (Gen.put_value s i))
        | 2 -> Hashtbl.replace tbl key Gone
        | _ -> ()
      done)
    streams;
  tbl

(** Read back [keys] through [lookup] and compare with what was acked:
    [acked.(c)] requests of client [c] were acknowledged, and
    [inflight.(c)] names the request it had outstanding at a crash. *)
let verify (w : Gen.workload) streams ~acked ~inflight ~keys ~lookup =
  let tbl = if owned w then model streams ~acked else Hashtbl.create 1 in
  (* In-flight writes: key -> the value the unacked request would leave. *)
  let alt = Hashtbl.create 64 in
  let lost = ref 0 and partial = ref 0 and unacked_lost = ref 0 in
  Array.iteri
    (fun c s ->
      match inflight.(c) with
      | None -> ()
      | Some r ->
          let applied = ref 0 and members = ref 0 in
          for i = s.Gen.starts.(r) to s.Gen.starts.(r + 1) - 1 do
            let p = s.Gen.ops.(i) in
            if Gen.code_of p = Gen.c_put then begin
              let key = Gen.key_of p and v = Gen.put_value s i in
              Hashtbl.replace alt key v;
              incr members;
              if lookup key = Some v then incr applied
            end
          done;
          if Gen.is_txn s r && !applied > 0 && !applied < !members then begin
            incr partial;
            lost := !lost + !members
          end)
    streams;
  Hashtbl.iter (fun key v -> if lookup key <> Some v then incr unacked_lost) alt;
  List.iter
    (fun key ->
      let got = lookup key in
      let ok =
        (match Hashtbl.find_opt alt key with
        | Some v -> got = Some v
        | None -> false)
        ||
        if owned w then
          match Hashtbl.find_opt tbl key with
          | Some (Exact v) -> got = Some v
          | Some Gone -> got = None
          | None ->
              key >= 1 && key <= w.Gen.preload
              && got = Some (Gen.preload_value key)
        else match got with Some v -> encodes key v | None -> false
      in
      if not ok then incr lost)
    keys;
  {
    checked = List.length keys;
    lost = !lost;
    partial = !partial;
    unacked_lost = !unacked_lost;
  }

(* --- tally ----------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let add t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let failed_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted
