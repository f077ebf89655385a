(* A fixed reference computation timed alongside the requests.

   The sandbox's CPU speed drifts by tens of percent within minutes, and
   every request's time drifts with it.  Each run starts this kernel as a
   process of its own between requests, and reports every duration scaled
   to the speed at which a kernel process takes [nominal_ms]: drift shared
   by the kernel and cindtool cancels, while a change in cindtool's own
   cost does not.  The kernel is the benchmark's code, so a change to the
   program cannot change it. *)

(* A kernel process's time on the host the bounds were set on. *)
let nominal_ms = 16.

(* Sorting integers in a 64 KiB array, then chasing pointers through a
   2 MiB cyclic permutation: compute in cache and memory latency. *)
let size = 1 lsl 13
let ring_size = 1 lsl 18

let kernel () =
  let cells = Array.make size 0 in
  let x = ref 88172645463325252 in
  for i = 0 to size - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    cells.(i) <- !x land max_int
  done;
  Array.sort (fun (a : int) b -> compare a b) cells;
  (* one cycle through every cell (Sattolo's shuffle) *)
  let r = Gen.rng 7 in
  let ring = Array.init ring_size Fun.id in
  for i = ring_size - 1 downto 1 do
    let j = Gen.int r i in
    let t = ring.(i) in
    ring.(i) <- ring.(j);
    ring.(j) <- t
  done;
  let j = ref 0 in
  for _ = 1 to 1 lsl 15 do
    j := ring.(!j)
  done;
  ignore (Sys.opaque_identity !j)

type t = { mutable samples : (float * float) list; mutable last : float }
(** kernel samples as (time, ms), newest first *)

let create () = { samples = []; last = neg_infinity }

(* One sample is one [run.exe --kernel] process, started through the
   capped wrapper like every cindtool request, so it pays process
   creation and runtime start-up as a request does. *)
let sample t =
  let r = Proc.run Sys.executable_name [ "--kernel" ] in
  let now = Proc.now () in
  t.samples <- (now, r.Proc.wall_s *. 1000.) :: t.samples;
  t.last <- now

(* Sample at most every [period] seconds, between requests. *)
let period = 0.2
let tick t = if Proc.now () -. t.last >= period then sample t
let ms t = Stats.median (List.map snd t.samples)

(* [scaler t] maps a time of the run to the factor that scales a duration
   measured then to the nominal speed: the median of the five kernel
   samples around it, since the speed drifts within a run too. *)
let scaler t =
  let samples = Array.of_list (List.rev t.samples) in
  let n = Array.length samples in
  let local =
    Array.init n (fun i ->
        let lo = max 0 (min (n - 5) (i - 2)) in
        nominal_ms /. Stats.median (List.init (min 5 n) (fun k -> snd samples.(lo + k))))
  in
  fun time ->
    (* the last sample taken at or before [time], else the first *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if fst samples.(mid) <= time then search mid hi else search lo (mid - 1)
    in
    local.(search 0 (n - 1))
