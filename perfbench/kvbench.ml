(* The repository benchmark: one seeded workload against the sharded KV
   service, end to end (spans off) or layer by layer (spans on).

     kvbench --workload NAME --seed N --seconds S --trace 0|1

   Two closed-loop client domains each own one [Server.Conn], so every
   request is encoded, fed through the connection's frame decoder and
   router, answered, and decoded exactly as a TCP connection's frames are.
   The server runs 2 shards in epoch persist mode (batch 32, default queue)
   under the PM cost model of the conversion-overhead experiment
   (100 ns per clwb, 30 ns per sfence).  Every reply goes through the
   {!Oracle}; the run ends with a restart (a power failure first, in
   crash-restart) and a read-back of the acknowledged state.

   The last line of stdout is one JSON object:
   [{"correct": .., "attempted": .., "failed": .., "metrics": {..}}].
   Everything before it is a human-readable report: run metadata, the
   stream digest, every metric with its unit, and in a traced run the
   per-shard latency waterfall.  README.md in this directory documents
   the workloads and the layer-to-metric map. *)

module S = Kvserve.Server
module W = Kvserve.Wire
module H = Util.Histogram
module Gen = Perfbench.Gen
module Oracle = Perfbench.Oracle

let now () = Int64.to_int (Monotonic_clock.now ())
let fi = float_of_int
let flush_ns = 100
let fence_ns = 30
let setups = 3  (* set-ups per end-to-end run; setup_s is their median *)
let restarts = 31  (* restarts at the end of a run *)

(* recovery_ms is this quantile of the restart times.  They are bimodal on
   a shared machine: the walks run about 1.5x slower while a neighbour
   loads the core, in stretches of a second or more.  A mean or a median
   moves with the share of slow restarts in the run; a low quantile reads
   the unloaded mode whenever a tenth of the restarts saw it, and a
   neighbour can slow a restart but never speed it up. *)
let restart_q = 0.1
let cfg = S.default_config
let out_dir = "perfbench/_out" (* trace files, relative to the checkout root *)

(* --- clients ------------------------------------------------------------- *)

let ring_cap = 4096 (* bench spans kept per client for the trace file *)
let capture_cap = 256 (* frames kept per client for the codec timings *)

type client = {
  cid : int;
  st : Gen.stream;
  mutable conn : S.Conn.conn;
  buf : Buffer.t;
  mutable next : int;  (** next request of the stream *)
  mutable acked : int;  (** requests [0, acked) were acknowledged *)
  mutable inflight : int option;  (** request cut off by the kill *)
  mutable stopped : bool;
  mutable raised : int;  (** requests the service raised on *)
  finished : bool Atomic.t;  (** the client's domain is done with the phase *)
  tally : Oracle.tally;
  (* per phase *)
  mutable first : int;  (** first request of the phase *)
  mutable ops_acked : int;
  mutable reqs : int;
  mutable overloaded : int;
  lat : int array;  (** round-trip samples of the measured phase, ns *)
  done_at : int array;  (** when each sampled request completed *)
  dops : int array;  (** ops each sampled request had acknowledged *)
  mutable nlat : int;
  (* traced phase: bench spans around each client call *)
  mutable enc_ns : int;
  mutable feed_ns : int;
  mutable dec_ns : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  ring : int array;  (** [rid; t0; t1; t2; t3] per request *)
  mutable nring : int;
  mutable cap_req : string list;
  mutable cap_resp : string list;
  mutable ncap : int;
}

let make_client srv st =
  {
    cid = st.Gen.client;
    st;
    conn = S.Conn.create srv;
    buf = Buffer.create 1024;
    next = 0;
    acked = 0;
    inflight = None;
    stopped = false;
    raised = 0;
    finished = Atomic.make false;
    tally = Oracle.tally ();
    first = 0;
    ops_acked = 0;
    reqs = 0;
    overloaded = 0;
    lat = Array.make (Gen.nreq st) 0;
    done_at = Array.make (Gen.nreq st) 0;
    dops = Array.make (Gen.nreq st) 0;
    nlat = 0;
    enc_ns = 0;
    feed_ns = 0;
    dec_ns = 0;
    req_bytes = 0;
    resp_bytes = 0;
    ring = Array.make (5 * ring_cap) 0;
    nring = 0;
    cap_req = [];
    cap_resp = [];
    ncap = 0;
  }

let reset_phase c =
  Atomic.set c.finished false;
  c.first <- c.next;
  c.ops_acked <- 0;
  c.reqs <- 0;
  c.overloaded <- 0;
  c.nlat <- 0;
  c.enc_ns <- 0;
  c.feed_ns <- 0;
  c.dec_ns <- 0;
  c.req_bytes <- 0;
  c.resp_bytes <- 0;
  c.nring <- 0

let max_raises = 10

let bad_response rid = { W.rrid = rid; status = W.Bad_request; replies = [] }

(* Ops a reply acknowledges: an aborted transaction acknowledges none. *)
let acked_ops (resp : W.response) =
  List.fold_left
    (fun a r ->
      match r with
      | W.Txn_ok rs -> a + List.length rs
      | W.Txn_aborted -> a
      | _ -> a + 1)
    0 resp.W.replies

(* One closed-loop client until [deadline] (or a kill / end of stream).
   The round trip runs from the start of encoding to the end of decoding;
   an [Overloaded] reply is retried and its wait stays in the sample. *)
let client_loop ~srv ~dense ~killed ~deadline ~record ~traced c =
  let nreq = Gen.nreq c.st in
  while (not c.stopped) && c.next < nreq && now () < deadline do
    let r = c.next in
    let req = Gen.request c.st r ~rid:(r land 0xFFFFFFFF) in
    let nops = Oracle.ops_of_request req in
    let t0 = now () in
    Buffer.clear c.buf;
    W.encode_request c.buf req;
    let frame = Buffer.contents c.buf in
    let t1 = now () in
    let rec call () =
      let out = S.Conn.feed c.conn frame in
      let t2 = now () in
      let resp =
        match W.decode_response out 0 with
        | `Ok (resp, _) -> resp
        | `Need_more | `Malformed _ -> bad_response req.W.rid
      in
      if resp.W.status = W.Overloaded then begin
        c.overloaded <- c.overloaded + 1;
        Domain.cpu_relax ();
        call ()
      end
      else (out, resp, t2, now ())
    in
    match call () with
    | exception e ->
        (* The service raised instead of answering: a failed request.  The
           connection may still hold the frame, so the client reconnects
           and, after a growing pause, retries the request — up to
           [max_raises] raises in all. *)
        Oracle.add c.tally ~attempted:nops ~failed:nops;
        c.raised <- c.raised + 1;
        Printf.printf "client %d: request %d raised %s\n%!" c.cid r
          (Printexc.to_string e);
        c.conn <- S.Conn.create srv;
        if c.raised >= max_raises then c.stopped <- true
        else Unix.sleepf (0.001 *. fi c.raised)
    | out, resp, t2, t3 ->
        c.reqs <- c.reqs + 1;
        (* Cut off by the benchmark's own kill — refused, or a transaction the
           kill aborted: unacknowledged, which the post-restart check accounts
           for; not a failure. *)
        let cut_off =
          Atomic.get killed
          && (resp.W.status = W.Shutdown
             || List.exists (( = ) W.Txn_aborted) resp.W.replies)
        in
        (if cut_off then begin
           Oracle.add c.tally ~attempted:nops ~failed:0;
           c.inflight <- Some r;
           c.stopped <- true
         end
         else
           match resp.W.status with
           | W.Ok ->
               let bad = Oracle.check_response ~dense req resp in
               Oracle.add c.tally ~attempted:nops ~failed:bad;
               let n = acked_ops resp in
               c.ops_acked <- c.ops_acked + n;
               c.acked <- r + 1;
               if record then begin
                 c.lat.(c.nlat) <- t3 - t0;
                 c.done_at.(c.nlat) <- t3;
                 c.dops.(c.nlat) <- n;
                 c.nlat <- c.nlat + 1
               end
           | W.Shutdown | W.Bad_request | W.Overloaded ->
               Oracle.add c.tally ~attempted:nops ~failed:nops;
               c.stopped <- true);
        if traced then begin
          c.enc_ns <- c.enc_ns + (t1 - t0);
          c.feed_ns <- c.feed_ns + (t2 - t1);
          c.dec_ns <- c.dec_ns + (t3 - t2);
          c.req_bytes <- c.req_bytes + String.length frame;
          c.resp_bytes <- c.resp_bytes + String.length out;
          let o = 5 * (c.nring mod ring_cap) in
          c.ring.(o) <- r;
          c.ring.(o + 1) <- t0;
          c.ring.(o + 2) <- t1;
          c.ring.(o + 3) <- t2;
          c.ring.(o + 4) <- t3;
          c.nring <- c.nring + 1;
          if c.ncap < capture_cap && resp.W.status = W.Ok then begin
            c.cap_req <- frame :: c.cap_req;
            c.cap_resp <- out :: c.cap_resp;
            c.ncap <- c.ncap + 1
          end
        end;
        c.next <- r + 1
  done

let stall_ns = 30_000_000_000

let report_stall srv clients =
  Array.iter
    (fun c ->
      if not (Atomic.get c.finished) then
        Printf.printf "stall: client %d blocked on request %d (txn=%b)\n" c.cid
          c.next (Gen.is_txn c.st c.next))
    clients;
  Printf.printf "stall: server %s\n%!"
    (String.concat " "
       (List.filter_map
          (fun (k, v) ->
            if
              List.mem k [ "crashed"; "ops_acked"; "epochs"; "txns"; "txn_aborted" ]
              || String.ends_with ~suffix:"queue_depth" k
              || String.ends_with ~suffix:"pending_acks" k
            then Some (Printf.sprintf "%s=%d" k v)
            else None)
          (S.stats_snapshot srv)))

type phase = {
  p_start : int;
  p_heap_words : int;  (** peak major heap sampled during the phase *)
  p_elapsed_ns : int;
  p_ops : int;
  p_reqs : int;
  p_overloaded : int;
}

(* Run every client in its own domain for [dur_ns]; with [kill_at] the
   server is killed that many ns into the phase. *)
let run_phase ~dense ~srv ~clients ~dur_ns ~record ~traced ?kill_at () =
  Array.iter reset_phase clients;
  Gc.compact ();
  let killed = Atomic.make false in
  let t_start = now () in
  let deadline = t_start + dur_ns in
  let doms =
    Array.map
      (fun c ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set c.finished true)
              (fun () ->
                client_loop ~srv ~dense ~killed ~deadline ~record ~traced c)))
      clients
  in
  (* The main domain samples the major heap every 20 ms while the clients
     run, and kills the server at [kill_at].  A client still blocked
     [stall_ns] after the phase should have ended is a stall: the
     benchmark reports it and kills the server to release the client,
     whose cut-off request then counts as failed. *)
  let heap = ref 0 in
  let kill_ts = Option.map (fun k -> t_start + k) kill_at in
  let stall_ts = Option.value kill_ts ~default:deadline + stall_ns in
  let stalled = ref false in
  while Array.exists (fun c -> not (Atomic.get c.finished)) clients do
    heap := max !heap (Gc.quick_stat ()).Gc.heap_words;
    let t = now () in
    match kill_ts with
    | Some ts when t >= ts && not (Atomic.get killed) ->
        Printf.printf "kill at %.3fs into the phase\n" (fi (t - t_start) /. 1e9);
        Atomic.set killed true;
        S.kill srv
    | Some ts when not (Atomic.get killed) ->
        Unix.sleepf (Float.min 0.02 (fi (ts - t) /. 1e9))
    | _ ->
        if t >= stall_ts && not !stalled then begin
          stalled := true;
          report_stall srv clients;
          S.kill srv
        end;
        Unix.sleepf 0.02
  done;
  Array.iter Domain.join doms;
  Array.iter
    (fun c ->
      if c.next >= Gen.nreq c.st then
        Printf.printf "warning: client %d ran out of its stream\n" c.cid)
    clients;
  {
    p_start = t_start;
    p_heap_words = !heap;
    p_elapsed_ns = now () - t_start;
    p_ops = Array.fold_left (fun a c -> a + c.ops_acked) 0 clients;
    p_reqs = Array.fold_left (fun a c -> a + c.reqs) 0 clients;
    p_overloaded = Array.fold_left (fun a c -> a + c.overloaded) 0 clients;
  }

let kops p = fi p.p_ops /. (fi (max 1 p.p_elapsed_ns) /. 1e9) /. 1e3

(* --- set-up ---------------------------------------------------------------- *)

let make_partition (w : Gen.workload) () =
  match w.Gen.index with
  | Gen.Art -> Harness.Kvparts.art ()
  | Gen.Clht -> Harness.Kvparts.clht ()

let preload_chunk = 64

(* Load keys [1..preload] through the service: each client domain loads
   its half over its own connection, 64 puts per request. *)
let preload (w : Gen.workload) srv tally =
  let load c =
    let conn = S.Conn.create srv in
    let buf = Buffer.create 4096 in
    let lo, hi = Gen.owned_range w c in
    let attempted = ref 0 and failed = ref 0 in
    let k = ref lo in
    while !k <= hi do
      let top = min hi (!k + preload_chunk - 1) in
      let ops =
        List.init (top - !k + 1) (fun j ->
            let key = !k + j in
            W.Put (Util.Keys.encode_int key, Gen.preload_value key))
      in
      let req = { W.rid = !k; ops } in
      Buffer.clear buf;
      W.encode_request buf req;
      let resp =
        match W.decode_response (S.Conn.feed conn (Buffer.contents buf)) 0 with
        | `Ok (resp, _) -> resp
        | `Need_more | `Malformed _ -> bad_response req.W.rid
      in
      attempted := !attempted + List.length ops;
      failed := !failed + Oracle.check_response ~dense:None req resp;
      k := top + 1
    done;
    (!attempted, !failed)
  in
  let doms = Array.init Gen.clients (fun c -> Domain.spawn (fun () -> load c)) in
  Array.iter
    (fun d ->
      let _attempted, failed = Domain.join d in
      (* Set-up ops are not traffic: only their failures are counted. *)
      Oracle.add tally ~attempted:0 ~failed)
    doms

type setup = {
  srv : S.t;
  parts : S.partition array;
  setup_ns : int;
  words0 : int;  (** PM words allocated before this set-up *)
}

let fresh_pm () =
  Recipe.Txn.clear_registry ();
  Pmem.persist_everything ()

let setup w tally =
  fresh_pm ();
  let words0 = (Pmem.Stats.snapshot ()).Pmem.Stats.s_words_allocated in
  let parts = Array.init cfg.S.shards (fun _ -> make_partition w ()) in
  (* Every timed set-up and restart starts from a collected heap, so the
     GC work left over from earlier phases does not land in its time. *)
  Gc.compact ();
  let t0 = now () in
  let srv = S.start cfg parts in
  preload w srv tally;
  { srv; parts; setup_ns = now () - t0; words0 }

(* --- restart and read-back ------------------------------------------------- *)

type recovery = {
  restart_ns : int;  (** recovery start to the first acked request *)
  txn_ns : int;
  index_ns : int;
  sweep_ns : int;
  sweep : Recipe.Recovery.stats;
}

(* Restart on the same partitions: WAL recovery, each partition's
   structural recovery and leak sweep, then a new server, timed until it
   acknowledges its first request.  The caller stopped the old server
   (and power-failed it, in crash-restart). *)
let restart parts =
  let t0 = now () in
  ignore (Recipe.Txn.recover_all () : Recipe.Recovery.txn_stats);
  let t1 = now () in
  Array.iter (fun (p : S.partition) -> p.S.p_recover ()) parts;
  let t2 = now () in
  let sweep =
    Array.fold_left
      (fun acc (p : S.partition) ->
        match p.S.p_sweep with
        | Some f -> Recipe.Recovery.add acc (f ())
        | None -> acc)
      Recipe.Recovery.zero parts
  in
  let t3 = now () in
  let srv = S.start cfg parts in
  let probe =
    W.request_string { W.rid = 1; ops = [ W.Get (Util.Keys.encode_int 1) ] }
  in
  let accepted =
    match W.decode_response (S.Conn.feed (S.Conn.create srv) probe) 0 with
    | `Ok (resp, _) -> resp.W.status = W.Ok
    | `Need_more | `Malformed _ -> false
  in
  let t4 = now () in
  ( srv,
    accepted,
    {
      restart_ns = t4 - t0;
      txn_ns = t1 - t0;
      index_ns = t2 - t1;
      sweep_ns = t3 - t2;
      sweep;
    } )

(* Served gets of [keys], 256 per request. *)
let fetch srv keys =
  let conn = S.Conn.create srv in
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let tbl = Hashtbl.create n in
  let failed = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let batch = Array.to_list (Array.sub keys !lo (min 256 (n - !lo))) in
    lo := !lo + 256;
    let req =
      { W.rid = 0; ops = List.map (fun k -> W.Get (Util.Keys.encode_int k)) batch }
    in
    match W.decode_response (S.Conn.feed conn (W.request_string req)) 0 with
    | `Ok ({ W.status = W.Ok; replies; _ }, _)
      when List.length replies = List.length batch ->
        List.iter2
          (fun k r ->
            Hashtbl.replace tbl k
              (match r with W.Found v -> Some v | _ -> None))
          batch replies
    | _ -> failed := !failed + List.length batch
  done;
  (tbl, !failed)

(* The keys read back after the restart: every preloaded key where clients
   own their keys and a crash may lose some (crash-restart); otherwise a
   seeded sample of preloaded keys plus, where the model is exact, every
   key the last 2048 acked requests of each client wrote. *)
let readback_keys (w : Gen.workload) ~seed clients =
  match w.Gen.kind with
  | Gen.Crash_restart -> List.init w.Gen.preload (fun i -> i + 1)
  | Gen.Put_zipf | Gen.Get_scan | Gen.Txn_clht ->
      let rng = Util.Rng.create (seed + 99) in
      let sample = List.init 4096 (fun _ -> 1 + Util.Rng.below rng w.Gen.preload) in
      if Oracle.owned w then
        Array.fold_left
          (fun acc c ->
            let acc = ref acc in
            for i = c.st.Gen.starts.(max 0 (c.next - 2048)) to c.st.Gen.starts.(c.next) - 1 do
              acc := Gen.key_of c.st.Gen.ops.(i) :: !acc
            done;
            !acc)
          sample clients
        |> List.sort_uniq compare
      else List.sort_uniq compare sample

(* --- statistics -------------------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of the sorted samples. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let samples clients =
  let a = Array.concat (Array.to_list (Array.map (fun c -> Array.sub c.lat 0 c.nlat) clients)) in
  Array.sort compare a;
  a

(* The measured phase cut into [windows] equal windows by completion
   time: throughput and ack percentiles per window, each reported as the
   median over the windows, so a stall of the shared machine in one
   window does not decide the run's figure. *)
let windows = 10

let windowed p clients =
  let w = max 1 (p.p_elapsed_ns / windows) in
  let ops = Array.make windows 0 and lats = Array.make windows [] in
  Array.iter
    (fun c ->
      for i = 0 to c.nlat - 1 do
        let k = min (windows - 1) (max 0 ((c.done_at.(i) - p.p_start) / w)) in
        ops.(k) <- ops.(k) + c.dops.(i);
        lats.(k) <- c.lat.(i) :: lats.(k)
      done)
    clients;
  let per f = median (List.init windows f) in
  Printf.printf "windows_kops=[%s]\n"
    (String.concat "; "
       (List.init windows (fun k -> Printf.sprintf "%.1f" (fi ops.(k) /. (fi w /. 1e9) /. 1e3))));
  let pct k q =
    let a = Array.of_list lats.(k) in
    Array.sort compare a;
    fi (percentile a q)
  in
  ( per (fun k -> fi ops.(k) /. (fi w /. 1e9) /. 1e3),
    per (fun k -> pct k 0.50),
    per (fun k -> pct k 0.99) )

let ratio a b = if b = 0. then 0. else a /. b

(* --- metrics output ----------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct tally =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "metric %-28s %16.6f %s\n" n v u) ms;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.Oracle.attempted tally.Oracle.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number v) u)
          ms))

(* --- per-layer measurement ------------------------------------------------------ *)

let shard_hist phase sid = Obs.Hist.v (Printf.sprintf "serve.%s.%d" phase sid)

let merged_hist phase =
  let h = H.create () in
  for sid = 0 to cfg.S.shards - 1 do
    H.merge h (Obs.Hist.merged (shard_hist phase sid))
  done;
  h

let reset_hists () =
  Kvserve.Servebench.reset_serve_metrics cfg.S.shards;
  for sid = 0 to cfg.S.shards - 1 do
    Obs.Hist.reset (shard_hist "queue_depth" sid)
  done

let stat_field snap k = match List.assoc_opt k snap with Some v -> v | None -> 0

(* Wall time per call of [f] over [items], repeated until 50 ms have run. *)
let time_per_item items f =
  let n = List.length items in
  if n = 0 then 0.
  else begin
    let t0 = now () in
    let rounds = ref 0 in
    while now () - t0 < 50_000_000 do
      List.iter f items;
      incr rounds
    done;
    fi (now () - t0) /. fi (!rounds * n)
  end

let time_total items f =
  let t0 = now () in
  List.iter f items;
  fi (now () - t0)

(* The codec layer on captured frames. *)
let wire_metrics clients =
  let reqs = List.concat_map (fun c -> c.cap_req) (Array.to_list clients) in
  let resps = List.concat_map (fun c -> c.cap_resp) (Array.to_list clients) in
  let decoded_req =
    List.filter_map
      (fun s -> match W.decode_request s 0 with `Ok (r, _) -> Some r | _ -> None)
      reqs
  in
  let decoded_resp =
    List.filter_map
      (fun s -> match W.decode_response s 0 with `Ok (r, _) -> Some r | _ -> None)
      resps
  in
  let b = Buffer.create 4096 in
  metric "wire.encode_req_ns" "ns"
    (time_per_item decoded_req (fun r -> Buffer.clear b; W.encode_request b r));
  metric "wire.decode_req_ns" "ns"
    (time_per_item reqs (fun s -> ignore (W.decode_request s 0)));
  metric "wire.encode_resp_ns" "ns"
    (time_per_item decoded_resp (fun r -> Buffer.clear b; W.encode_response b r));
  metric "wire.decode_resp_ns" "ns"
    (time_per_item resps (fun s -> ignore (W.decode_response s 0)));
  let nreq = Array.fold_left (fun a c -> a + c.reqs) 0 clients in
  metric "wire.req_bytes" "bytes"
    (ratio (fi (Array.fold_left (fun a c -> a + c.req_bytes) 0 clients)) (fi nreq));
  metric "wire.resp_bytes" "bytes"
    (ratio (fi (Array.fold_left (fun a c -> a + c.resp_bytes) 0 clients)) (fi nreq))

(* Index operations on standalone instances, one domain, replaying the
   first 20000 ops the traced phase sent. *)
let index_metrics clients =
  let c = clients.(0) in
  let lo = c.st.Gen.starts.(c.first) in
  let hi = min (lo + 20_000) c.st.Gen.starts.(c.next) in
  let ops = List.init (max 0 (hi - lo)) (fun i -> c.st.Gen.ops.(lo + i)) in
  let keys = List.map (fun p -> Util.Keys.encode_int (Gen.key_of p)) ops in
  let distinct = List.sort_uniq compare keys in
  let nd = fi (max 1 (List.length distinct)) and nk = fi (max 1 (List.length keys)) in
  let value k = Gen.preload_value (Util.Keys.decode_int k) in
  let art = Harness.Kvparts.art () in
  metric "art.insert_ns" "ns"
    (time_total distinct (fun k -> ignore (art.S.p_insert k (value k))) /. nd);
  metric "art.lookup_ns" "ns" (time_total keys (fun k -> ignore (art.S.p_lookup k)) /. nk);
  let starts =
    match List.filter (fun p -> Gen.code_of p = Gen.c_scan) ops with
    | [] -> List.filteri (fun i _ -> i mod 16 = 0) keys
    | scans -> List.map (fun p -> Util.Keys.encode_int (Gen.key_of p)) scans
  in
  let scanned = ref 0 in
  let scan = Option.get art.S.p_scan in
  let t = time_total starts (fun k -> scanned := !scanned + List.length (scan k Gen.scan_len)) in
  metric "art.scan_ns_per_key" "ns" (ratio t (fi !scanned));
  let clht = Harness.Kvparts.clht () in
  metric "clht.insert_ns" "ns"
    (time_total distinct (fun k -> ignore (clht.S.p_insert k (value k))) /. nd);
  metric "clht.lookup_ns" "ns" (time_total keys (fun k -> ignore (clht.S.p_lookup k)) /. nk);
  metric "clht.delete_ns" "ns" (time_total distinct (fun k -> ignore (clht.S.p_delete k)) /. nd)

(* Mean batch apply per op from the retained spans: ops dequeued together
   share [t_dequeue] on their shard, and the batch's apply ends at the
   latest [t_applied]. *)
let apply_ns_per_op () =
  let batches = Hashtbl.create 4096 in
  List.iter
    (fun sp ->
      let open Obs.Span in
      let key = (sp.sid, sp.t_dequeue) in
      let n, last = Option.value (Hashtbl.find_opt batches key) ~default:(0, 0) in
      Hashtbl.replace batches key (n + 1, max last sp.t_applied))
    (Obs.Span.dump ());
  let ops = ref 0 and ns = ref 0 in
  Hashtbl.iter
    (fun (_, t_dq) (n, last) ->
      ops := !ops + n;
      ns := !ns + max 0 (last - t_dq))
    batches;
  ratio (fi !ns) (fi !ops)

(* Per-shard waterfall: the stamped phases against the server-side ack;
   what they leave unexplained is route + wake time. *)
let waterfall () =
  let rows =
    List.init cfg.S.shards (fun sid ->
        let mean p = H.mean (Obs.Hist.merged (shard_hist ("phase." ^ p) sid)) in
        let count = H.count (Obs.Hist.merged (shard_hist "phase.ack" sid)) in
        let named = List.map (fun p -> (p, mean p)) [ "queue"; "apply"; "epoch_wait"; "fence" ] in
        let ack = mean "ack" in
        let un = ack -. List.fold_left (fun a (_, v) -> a +. v) 0. named in
        Printf.printf "waterfall shard %d (n=%d): %s ack=%.0fns unattributed=%.0fns (%.3f)\n"
          sid count
          (String.concat " " (List.map (fun (p, v) -> Printf.sprintf "%s=%.0fns" p v) named))
          ack un (ratio un ack);
        (count, ack, un))
  in
  let n = List.fold_left (fun a (c, _, _) -> a + c) 0 rows in
  let wsum f = List.fold_left (fun a ((c, _, _) as r) -> a +. (fi c *. f r)) 0. rows in
  let ack = ratio (wsum (fun (_, a, _) -> a)) (fi n) in
  let un = ratio (wsum (fun (_, _, u) -> u)) (fi n) in
  (un, ratio un ack)

let cross_shard_frac clients =
  let txns = ref 0 and cross = ref 0 in
  Array.iter
    (fun c ->
      for r = c.first to c.next - 1 do
        if Gen.is_txn c.st r then begin
          incr txns;
          let shards = ref [] in
          for i = c.st.Gen.starts.(r) to c.st.Gen.starts.(r + 1) - 1 do
            let sid =
              S.shard_of_key cfg (Util.Keys.encode_int (Gen.key_of c.st.Gen.ops.(i)))
            in
            if not (List.mem sid !shards) then shards := sid :: !shards
          done;
          if List.length !shards > 1 then incr cross
        end
      done)
    clients;
  ratio (fi !cross) (fi !txns)

(* Perfetto file: the server's spans plus the benchmark's own
   encode/feed/decode spans, one row per client. *)
let write_trace path clients =
  let module J = Obs.Json in
  let base = Obs.Traceview.to_json () in
  let spans = Obs.Span.dump () in
  let span_t0 = List.fold_left (fun m sp -> min m sp.Obs.Span.t_submit) max_int spans in
  let t0 =
    Array.fold_left
      (fun m c ->
        let m = ref m in
        for i = 0 to min c.nring ring_cap - 1 do
          m := min !m c.ring.((5 * i) + 1)
        done;
        !m)
      span_t0 clients
  in
  let us ns = fi ns /. 1e3 in
  let ev name ts dur tid rid =
    J.Obj
      [
        ("name", J.Str name);
        ("cat", J.Str "bench");
        ("ph", J.Str "X");
        ("ts", J.Num (us (ts - t0)));
        ("dur", J.Num (us (max 0 dur)));
        ("pid", J.int 3);
        ("tid", J.int tid);
        ("args", J.Obj [ ("rid", J.int rid) ]);
      ]
  in
  let client_events =
    Array.to_list clients
    |> List.concat_map (fun c ->
           List.init (min c.nring ring_cap) (fun i ->
               let o = 5 * i in
               let rid = c.ring.(o) and a = c.ring.(o + 1) and b = c.ring.(o + 2)
               and d = c.ring.(o + 3) and e = c.ring.(o + 4) in
               [ ev "encode" a (b - a) c.cid rid; ev "feed" b (d - b) c.cid rid;
                 ev "decode" d (e - d) c.cid rid ])
           |> List.concat)
  in
  (* Traceview normalized the server's events to their earliest span;
     re-base them onto the shared origin. *)
  let shift = if spans = [] then 0. else us (span_t0 - t0) in
  let rebase = function
    | J.Obj kvs ->
        J.Obj
          (List.map
             (function
               | "ts", J.Num ts -> ("ts", J.Num (ts +. shift))
               | kv -> kv)
             kvs)
    | v -> v
  in
  let json =
    match base with
    | J.Obj kvs ->
        J.Obj
          (List.map
             (function
               | "traceEvents", J.List evs ->
                   ("traceEvents", J.List (List.map rebase evs @ client_events))
               | kv -> kv)
             kvs)
    | v -> v
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> J.to_channel oc json)


(* --- main -------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let git_rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME put-zipf|get-scan|txn-clht|crash-restart");
      ("--seed", Arg.Set_int seed, "N seed of the request streams");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the run metadata");
    ]
  in
  let usage = "kvbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Gen.find !workload with
    | Some w when !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) -> w
    | _ ->
        Arg.usage spec usage;
        exit 2
  in
  let traced_run = !trace = 1 in
  let dense = match w.Gen.kind with Gen.Get_scan -> Some w.Gen.preload | _ -> None in
  let crash = w.Gen.kind = Gen.Crash_restart in
  let warm_s = Float.min 1.0 (!seconds /. 5.) in
  let streams = Gen.streams w ~seed:!seed ~seconds:(warm_s +. !seconds) in
  (* The cost model calibrates its spin loop once, here: run the core hot
     for 300 ms first, or a cold core reads up to twice too slow and every
     charged flush spins that much shorter. *)
  let t_hot = now () in
  while now () - t_hot < 300_000_000 do
    ignore (Sys.opaque_identity (Array.make 16 0))
  done;
  Pmem.Latency.set ~flush:flush_ns ~fence:fence_ns;
  Pmem.Mode.set_shadow w.Gen.shadow;
  let digest = Gen.digest streams in
  let kill_frac =
    let rng = Util.Rng.create (!seed + 4242) in
    0.5 +. (0.3 *. Gen.unit_float rng)
  in
  Printf.printf
    "meta workload=%s seed=%d seconds=%g trace=%d git_rev=%s nproc=%d ocaml=%s \
     pm_cost=flush:%dns,fence:%dns spin_iters_per_ns=%.4f persist_mode=%s \
     shards=%d batch=%d queue_cap=%d clients=%d index=%s preload_keys=%d \
     shadow=%b requests_per_client=%d\n"
    w.Gen.name !seed !seconds !trace !git_rev
    (Domain.recommended_domain_count ())
    Sys.ocaml_version flush_ns fence_ns
    (Lazy.force Pmem.Latency.iters_per_ns)
    (S.mode_name cfg.S.mode) cfg.S.shards cfg.S.batch cfg.S.queue_cap Gen.clients
    (match w.Gen.index with Gen.Art -> "P-ART" | Gen.Clht -> "P-CLHT")
    w.Gen.preload w.Gen.shadow (Gen.nreq streams.(0));
  Printf.printf "stream_digest %s\n%!" digest;
  let tally = Oracle.tally () in
  (* Set-up: the median of [setups] in an end-to-end run; the last one
     serves the traffic. *)
  let setup_times = ref [] in
  let rec do_setups i =
    let s = setup w tally in
    setup_times := (fi s.setup_ns /. 1e9) :: !setup_times;
    if i < (if traced_run then 1 else setups) then begin
      S.stop s.srv;
      do_setups (i + 1)
    end
    else s
  in
  let su = do_setups 1 in
  let srv = ref su.srv in
  let clients = Array.map (make_client !srv) streams in
  let phase ~dur_s ~record ~traced ~may_kill =
    let kill_at =
      if crash && may_kill then Some (int_of_float (kill_frac *. dur_s *. 1e9))
      else None
    in
    run_phase ~dense ~srv:!srv ~clients
      ~dur_ns:(int_of_float (dur_s *. 1e9))
      ~record ~traced ?kill_at ()
  in
  (* The end of every run: stop (after the kill, in crash-restart, then a
     power failure), restart, and read the acknowledged state back. *)
  let finish () =
    S.stop !srv;
    if crash then Pmem.simulate_power_failure ();
    Gc.full_major ();
    let srv2, accepted, rc = restart su.parts in
    if not accepted then Oracle.add tally ~attempted:0 ~failed:1;
    let keys = readback_keys w ~seed:!seed clients in
    let tbl, fetch_failed = fetch srv2 keys in
    let lookup k = Option.join (Hashtbl.find_opt tbl k) in
    let rep =
      Oracle.verify w streams
        ~acked:(Array.map (fun c -> c.acked) clients)
        ~inflight:(Array.map (fun c -> c.inflight) clients)
        ~keys ~lookup
    in
    Oracle.add tally ~attempted:0 ~failed:(rep.Oracle.lost + fetch_failed);
    S.stop srv2;
    (* More restarts of the same partitions (clean ones now), so
       recovery_ms is a quantile rather than one jittery sample.  Each
       starts after the GC finished its major cycle, so no GC debt of the
       restart before lands in its time. *)
    let all = ref [ rc ] in
    for _ = 2 to restarts do
      Gc.major ();
      let srv3, ok, r = restart su.parts in
      if not ok then Oracle.add tally ~attempted:0 ~failed:1;
      S.stop srv3;
      all := r :: !all
    done;
    let ms ns = fi ns /. 1e6 in
    Printf.printf
      "verify keys=%d lost=%d partial_txns=%d unacked_lost=%d fetch_failed=%d \
       restart_accepted=%b\n"
      rep.Oracle.checked rep.Oracle.lost rep.Oracle.partial
      rep.Oracle.unacked_lost fetch_failed accepted;
    (* Each restart as total (index recovery + sweep + the rest). *)
    Printf.printf "restarts_ms=[%s]\n"
      (String.concat "; "
         (List.rev_map
            (fun r ->
              Printf.sprintf "%.3f (%.3f+%.3f+%.3f)" (ms r.restart_ns)
                (ms r.index_ns) (ms r.sweep_ns)
                (ms (r.restart_ns - r.index_ns - r.sweep_ns)))
            !all));
    let times = Array.of_list (List.map (fun r -> r.restart_ns) !all) in
    Array.sort compare times;
    (rc, rep, ms (percentile times restart_q))
  in
  ignore (phase ~dur_s:warm_s ~record:false ~traced:false ~may_kill:false);
  if not traced_run then begin
    let p = phase ~dur_s:!seconds ~record:true ~traced:false ~may_kill:true in
    let heap_peak_mib = fi p.p_heap_words *. 8. /. 1048576. in
    let words = (Pmem.Stats.snapshot ()).Pmem.Stats.s_words_allocated - su.words0 in
    let _, _, recovery_ms = finish () in
    let lat = samples clients in
    let w_kops, w_p50, w_p99 = windowed p clients in
    metric "throughput_kops" "kops/s" w_kops;
    metric "ack_p50_us" "us" (w_p50 /. 1e3);
    metric "ack_p99_us" "us" (w_p99 /. 1e3);
    metric "setup_s" "s" (median !setup_times);
    (* Live keys are the preload's in every workload: txn-clht deletes as
       many keys as it adds. *)
    metric "pm_bytes_per_key" "bytes" (fi words *. 8. /. fi w.Gen.preload);
    metric "heap_peak_mib" "MiB" heap_peak_mib;
    metric "recovery_ms" "ms" recovery_ms;
    Printf.printf
      "phase seconds=%.3f acked_ops=%d requests=%d overloaded_retries=%d \
       kops=%.3f ack_p50_us=%.3f ack_p99_us=%.3f ack_samples=%d setups_s=[%s]\n"
      (fi p.p_elapsed_ns /. 1e9) p.p_ops p.p_reqs p.p_overloaded (kops p)
      (fi (percentile lat 0.50) /. 1e3) (fi (percentile lat 0.99) /. 1e3)
      (Array.length lat)
      (String.concat "; " (List.rev_map (Printf.sprintf "%.4f") !setup_times))
  end
  else begin
    let half = !seconds /. 2. in
    let a = phase ~dur_s:half ~record:false ~traced:false ~may_kill:false in
    (* A clean restart between the two phases, so the traced phase's
       worker domains end with it and their GC counts are folded in. *)
    S.stop !srv;
    srv := S.start cfg su.parts;
    Array.iter (fun c -> c.conn <- S.Conn.create !srv) clients;
    reset_hists ();
    Obs.Span.clear ();
    let pm0 = Pmem.Stats.snapshot () and st0 = S.stats_snapshot !srv in
    let gc0 = Gc.quick_stat () in
    Obs.Span.set_enabled true;
    let b = phase ~dur_s:half ~record:false ~traced:true ~may_kill:true in
    S.stop !srv;
    Obs.Span.set_enabled false;
    let pm = Pmem.Stats.diff (Pmem.Stats.snapshot ()) pm0 in
    let gc1 = Gc.quick_stat () in
    let st1 = S.stats_snapshot !srv in
    let d k = fi (stat_field st1 k - stat_field st0 k) in
    let ops = fi (max 1 b.p_ops) and kop = fi (max 1 b.p_ops) /. 1e3 in
    let queue = merged_hist "phase.queue" and ewait = merged_hist "phase.epoch_wait" in
    metric "server.queue_ns_p50" "ns" (fi (H.percentile queue 0.50));
    metric "server.queue_ns_p99" "ns" (fi (H.percentile queue 0.99));
    metric "server.batch_ops_mean" "ops" (H.mean (merged_hist "batch_ops"));
    metric "server.queue_depth_mean" "ops" (H.mean (merged_hist "queue_depth"));
    metric "server.overloaded_per_kreq" "1/kreq" (ratio (d "overloaded") (fi b.p_reqs /. 1e3));
    let un_ns, un_frac = waterfall () in
    metric "server.unattributed_ns" "ns" un_ns;
    metric "server.unattributed_frac" "frac" un_frac;
    metric "epoch.ops_per_epoch" "ops" (H.mean (merged_hist "epoch_ops"));
    metric "epoch.advances_per_kop" "1/kop" (d "epochs" /. kop);
    metric "epoch.wait_ns_p50" "ns" (fi (H.percentile ewait 0.50));
    metric "epoch.wait_ns_p99" "ns" (fi (H.percentile ewait 0.99));
    metric "persist.clwb_per_op" "1/op" (fi pm.Pmem.Stats.s_clwb /. ops);
    metric "persist.sfence_per_op" "1/op" (fi pm.Pmem.Stats.s_sfence /. ops);
    metric "persist.fence_ns_p50" "ns" (fi (H.percentile (merged_hist "phase.fence") 0.50));
    metric "persist.lines_per_epoch" "lines" (ratio (d "group_lines") (d "epochs"));
    let txns = d "txns" and aborted = d "txn_aborted" in
    metric "txn.cross_shard_frac" "frac" (cross_shard_frac clients);
    metric "txn.abort_frac" "frac" (ratio aborted (txns +. aborted));
    metric "txn.clwb_per_txn" "1/txn" (ratio (fi pm.Pmem.Stats.s_clwb) txns);
    metric "txn.sfence_per_txn" "1/txn" (ratio (fi pm.Pmem.Stats.s_sfence) txns);
    metric "index.apply_ns_per_op" "ns" (apply_ns_per_op ());
    metric "pmem.words_alloc_per_op" "words/op" (fi pm.Pmem.Stats.s_words_allocated /. ops);
    metric "pmem.lines_alloc_per_op" "lines/op" (fi pm.Pmem.Stats.s_lines_allocated /. ops);
    metric "gc.minor_per_kop" "1/kop"
      (fi (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. kop);
    metric "gc.major_per_kop" "1/kop"
      (fi (gc1.Gc.major_collections - gc0.Gc.major_collections) /. kop);
    metric "gc.promoted_words_per_op" "words/op"
      ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. ops);
    let nreqs = fi (max 1 b.p_reqs) in
    let sum f = fi (Array.fold_left (fun a c -> a + f c) 0 clients) in
    metric "client.encode_ns" "ns" (sum (fun c -> c.enc_ns) /. nreqs);
    metric "client.feed_ns" "ns" (sum (fun c -> c.feed_ns) /. nreqs);
    metric "client.decode_ns" "ns" (sum (fun c -> c.dec_ns) /. nreqs);
    let overhead = 1. -. ratio (kops b) (kops a) in
    metric "trace.overhead_frac" "frac" overhead;
    Printf.printf "trace untraced_kops=%.3f traced_kops=%.3f overhead_frac=%.4f\n"
      (kops a) (kops b) overhead;
    if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
    let path =
      Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.Gen.name !seed)
    in
    write_trace path clients;
    Printf.printf "trace_file %s\n" path;
    let rc, rep, _ = finish () in
    metric "recovery.txn_ms" "ms" (fi rc.txn_ns /. 1e6);
    metric "recovery.index_ms" "ms" (fi rc.index_ns /. 1e6);
    metric "recovery.sweep_ms" "ms" (fi rc.sweep_ns /. 1e6);
    metric "recovery.repaired" "count" (fi rc.sweep.Recipe.Recovery.repaired);
    metric "recovery.orphans" "count" (fi rc.sweep.Recipe.Recovery.orphans);
    metric "recovery.unacked_lost" "ops" (fi rep.Oracle.unacked_lost);
    wire_metrics clients;
    index_metrics clients
  end;
  Array.iter
    (fun c ->
      Oracle.add tally ~attempted:c.tally.Oracle.attempted
        ~failed:c.tally.Oracle.failed)
    clients;
  Printf.printf "failed_frac %.6g (failed=%d attempted=%d)\n"
    (Oracle.failed_frac tally) tally.Oracle.failed tally.Oracle.attempted;
  print_result ~correct:(tally.Oracle.failed = 0) tally
