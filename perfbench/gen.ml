(* Seeded request streams for the four benchmark workloads.

   Every client's whole request stream is generated from the seed before
   timing starts and held in a packed form: one int per operation (opcode
   in the low 3 bits, key above) plus request boundaries and a txn flag.
   A client turns request [r] into a [Wire.request] just before encoding
   it, so the service only ever receives the generated requests.

   Keys are 8-byte big-endian integers (the wire and the hash partitions
   both take that form).  A value encodes its key and the position of the
   write in its client's stream, [key lsl 24 lor pos]; preloaded values use
   position 0.  So any reply can be checked for "this value belongs to this
   key" without a model, and the crash check can tell versions apart. *)

module Wire = Kvserve.Wire

type index = Art | Clht

type kind = Put_zipf | Get_scan | Txn_clht | Crash_restart

type workload = {
  name : string;
  kind : kind;
  index : index;
  preload : int;  (** keys [1..preload] are loaded before timing *)
  shadow : bool;  (** shadow PM images, needed for a power failure *)
  rate_cap : int;
      (** upper bound on requests per second per client; sizes the stream *)
}

let workloads =
  [
    {
      name = "put-zipf";
      kind = Put_zipf;
      index = Art;
      preload = 200_000;
      shadow = false;
      rate_cap = 30_000;
    };
    {
      name = "get-scan";
      kind = Get_scan;
      index = Art;
      preload = 1_000_000;
      shadow = false;
      rate_cap = 15_000;
    };
    {
      name = "txn-clht";
      kind = Txn_clht;
      index = Clht;
      preload = 200_000;
      shadow = false;
      rate_cap = 30_000;
    };
    {
      name = "crash-restart";
      kind = Crash_restart;
      index = Art;
      preload = 200_000;
      shadow = true;
      rate_cap = 20_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let clients = 2
let ops_per_request = 16
let txn_members = 4
let scan_len = 32
let zipf_theta = 0.99

(* --- packed operations ---------------------------------------------------- *)

let c_get = 0
let c_put = 1
let c_del = 2
let c_scan = 3
let pack code key = (key lsl 3) lor code
let code_of p = p land 7
let key_of p = p lsr 3

let pos_bits = 24

let value ~key ~pos = (key lsl pos_bits) lor pos
let key_of_value v = v lsr pos_bits
let preload_value key = value ~key ~pos:0

type stream = {
  client : int;
  ops : int array;  (** packed ops, request after request *)
  starts : int array;  (** request [r] is [ops.(starts.(r)) .. starts.(r+1)-1] *)
  txn : Bytes.t;  (** ['\001'] where request [r] is one [Wire.Txn] *)
}

let nreq s = Array.length s.starts - 1
let is_txn s r = Bytes.get s.txn r = '\001'

(* The value a put at stream position [i] writes (positions start at 1). *)
let put_value s i = value ~key:(key_of s.ops.(i)) ~pos:(i + 1)

let op_of s i =
  let p = s.ops.(i) in
  let k = Util.Keys.encode_int (key_of p) in
  match code_of p with
  | 0 -> Wire.Get k
  | 1 -> Wire.Put (k, put_value s i)
  | 2 -> Wire.Delete k
  | 3 -> Wire.Scan (k, scan_len)
  | c -> invalid_arg (Printf.sprintf "Gen.op_of: opcode %d" c)

(* Materialize request [r] of the stream as sent on the wire. *)
let request s r ~rid =
  let ops = ref [] in
  for i = s.starts.(r + 1) - 1 downto s.starts.(r) do
    ops := op_of s i :: !ops
  done;
  if is_txn s r then { Wire.rid; ops = [ Wire.Txn !ops ] }
  else { Wire.rid; ops = !ops }

(* Keys a client owns in the disjoint-range workloads: its half of the
   preload, and fresh keys above every preloaded one. *)
let owned_range w c =
  let half = w.preload / clients in
  (1 + (c * half), if c = clients - 1 then w.preload else (c + 1) * half)

(* The [n]th fresh key of client [c] (n >= 1), above the preload and
   disjoint between the clients.  [n] goes through a multiplicative
   bijection on 27 bits first: consecutive keys would share their high
   bytes, and the server's shard choice (the low bit of an FNV-1a hash)
   would then put all of a transaction's fresh keys on one shard. *)
let fresh_key w c n =
  let scrambled = (n * 0x2545F491) land ((1 lsl 27) - 1) in
  w.preload + 1 + (clients * scrambled) + c

(* --- generation ----------------------------------------------------------- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create n = { a = Array.make (max 16 n) 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* YCSB-style Zipfian ranks over [0, n) (Gray et al.), mapped to keys
   through a seeded permutation so the hot keys spread over the key space
   (and over both shards). *)
type zipf = { n : int; alpha : float; zetan : float; eta : float; perm : int array }

let make_zipf rng n theta =
  let zetan = ref 0.0 in
  for i = 1 to n do
    zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let zeta2 = 1.0 +. (1.0 /. Float.pow 2.0 theta) in
  let perm = Array.init n (fun i -> i) in
  Util.Rng.shuffle rng perm;
  {
    n;
    alpha = 1.0 /. (1.0 -. theta);
    zetan = !zetan;
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. !zetan));
    perm;
  }

(* Uniform float in [0, 1) with 29 random bits.  (Not [Util.Rng.float],
   which divides 48 random bits by 2^47 and so returns values in [0, 2).) *)
let unit_float rng =
  float_of_int (Util.Rng.below rng (1 lsl 29)) /. float_of_int (1 lsl 29)

let zipf_key z theta rng =
  let u = unit_float rng in
  let uz = u *. z.zetan in
  let rank =
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      int_of_float
        (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha)
  in
  1 + z.perm.(min (z.n - 1) rank)

(* [n] distinct keys drawn uniformly from [lo..hi]. *)
let distinct_keys rng ~lo ~hi n =
  let rec draw acc k =
    if k = 0 then acc
    else
      let key = lo + Util.Rng.below rng (hi - lo + 1) in
      if List.mem key acc then draw acc k else draw (key :: acc) (k - 1)
  in
  draw [] n

let gen_stream w ~seed ~nreq ~(zipf : zipf option) c =
  let rng = Util.Rng.create ((seed * 1_000_003) + (7919 * (c + 1))) in
  let ops = Ibuf.create (nreq * ops_per_request) in
  let starts = Array.make (nreq + 1) 0 in
  let txn = Bytes.make nreq '\000' in
  let lo, hi = owned_range w c in
  (* txn-clht: keys this client has written and not yet deleted, so a
     delete always targets a key acked by an earlier request. *)
  let live = Ibuf.create (hi - lo + 1) in
  if w.kind = Txn_clht then
    for k = lo to hi do
      Ibuf.push live k
    done;
  let fresh = ref 0 in
  for r = 0 to nreq - 1 do
    starts.(r) <- ops.Ibuf.n;
    match w.kind with
    | Put_zipf ->
        let z = Option.get zipf in
        for _ = 1 to ops_per_request do
          let key = zipf_key z zipf_theta rng in
          let code = if Util.Rng.below rng 100 < 90 then c_put else c_get in
          Ibuf.push ops (pack code key)
        done
    | Get_scan ->
        for _ = 1 to ops_per_request do
          let key = 1 + Util.Rng.below rng w.preload in
          let roll = Util.Rng.below rng 100 in
          let code =
            if roll < 90 then c_get else if roll < 95 then c_scan else c_put
          in
          Ibuf.push ops (pack code key)
        done
    | Txn_clht ->
        (* Half the members put fresh keys and half delete keys acked by
           earlier requests, so the live set keeps the preload's size: a
           growing one would cross a CLHT resize in some runs and not in
           others, and pm_bytes_per_key, heap_peak_mib and recovery_ms
           would jump with it. *)
        Bytes.set txn r '\001';
        let victims =
          List.init (txn_members / 2) (fun _ ->
              let j = Util.Rng.below rng live.Ibuf.n in
              let victim = live.Ibuf.a.(j) in
              live.Ibuf.a.(j) <- live.Ibuf.a.(live.Ibuf.n - 1);
              live.Ibuf.n <- live.Ibuf.n - 1;
              victim)
        in
        for _ = 1 to txn_members - (txn_members / 2) do
          incr fresh;
          let key = fresh_key w c !fresh in
          Ibuf.push ops (pack c_put key);
          Ibuf.push live key
        done;
        List.iter (fun victim -> Ibuf.push ops (pack c_del victim)) victims
    | Crash_restart ->
        (* Distinct keys within a request, so a request cut off by the
           crash leaves at most one candidate value per key. *)
        let txn_req = Util.Rng.below rng 4 = 0 in
        if txn_req then Bytes.set txn r '\001';
        List.iter
          (fun key -> Ibuf.push ops (pack c_put key))
          (distinct_keys rng ~lo ~hi
             (if txn_req then txn_members else ops_per_request))
  done;
  starts.(nreq) <- ops.Ibuf.n;
  if ops.Ibuf.n >= 1 lsl pos_bits then
    invalid_arg "Gen.gen_stream: stream too long for the value encoding";
  { client = c; ops = Ibuf.contents ops; starts; txn }

(** Every client's stream for [seconds] of traffic at up to [w.rate_cap]
    requests per second. *)
let streams w ~seed ~seconds =
  let nreq = max 1000 (int_of_float (ceil (seconds *. float_of_int w.rate_cap))) in
  let zipf =
    match w.kind with
    | Put_zipf ->
        Some (make_zipf (Util.Rng.create (seed + 17)) w.preload zipf_theta)
    | Get_scan | Txn_clht | Crash_restart -> None
  in
  Array.init clients (fun c -> gen_stream w ~seed ~nreq ~zipf c)

(* FNV-1a over every packed op, boundary and txn flag of every stream:
   equal digests mean byte-identical inputs. *)
let digest streams =
  let h = ref 0x4BF29CE484222325 (* FNV offset basis, top bit dropped *) in
  let mix v = h := (!h lxor v) * 0x100000001b3 in
  Array.iter
    (fun s ->
      mix s.client;
      Array.iter mix s.ops;
      Array.iter mix s.starts;
      Bytes.iter (fun ch -> mix (Char.code ch)) s.txn)
    streams;
  Printf.sprintf "%016x" (!h land max_int)
