(* Clock, order statistics and the metric list every workload fills. *)

(** Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Nearest-rank percentile, [p] in [0, 100]; 0 for no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** [xs] in an order drawn from [seed]. *)
let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Geometric-mean overhead of [(instrumented, base)] cycle pairs — the
    formula of [Exp_elim.geomean_ov]. *)
let geomean_ov pairs =
  let logs =
    List.map (fun (c, b) -> log (float_of_int c /. float_of_int b)) pairs
  in
  exp (sum logs /. float_of_int (List.length logs)) -. 1.0

(** Peak resident set of this process, in MB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(** Bytes allocated by the whole process so far (every domain that has
    terminated included). *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, for the log *)
}

let create () = { metrics = []; attempted = 0; failed = 0; failures = [] }

let add r name unit_ value = r.metrics <- (name, value, unit_) :: r.metrics

(** Count one checked operation; [ok = false] records [why]. *)
let check r ok why =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 10 then r.failures <- why () :: r.failures
  end

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
