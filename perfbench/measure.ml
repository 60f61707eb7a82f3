(* Clocks, sample summaries, resident memory and the result record the
   measuring program prints for perfbench/run.py. *)

let now () = Monotonic.now_s ()

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A growable float buffer: latency samples, one per operation. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let clear s = s.len <- 0

(* The samples [first, last) in ascending order. *)
let sorted_slice s first last =
  let a = Array.sub s.data first (last - first) in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array, [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median s = quantile (sorted_slice s 0 s.len) 0.5

(* The process's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Result record                                                      *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable checks : (string * int * int) list;
      (** check name, cases checked, cases that disagreed *)
  mutable notes : (string * string) list;
}

let result () = { attempted = 0; failed = 0; metrics = []; checks = []; notes = [] }

let metric r name unit_ value = r.metrics <- r.metrics @ [ (name, value, unit_) ]

let note r key value = r.notes <- r.notes @ [ (key, value) ]

(* A check over [cases] cases, [bad] of which disagreed.  A check that
   ran on no case is reported as such and fails the run: a correctness
   check that never fires proves nothing. *)
let check r name ~cases ~bad = r.checks <- r.checks @ [ (name, cases, bad) ]

let correct r =
  r.checks <> [] && List.for_all (fun (_, cases, bad) -> cases > 0 && bad = 0) r.checks

let to_json r =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  obj
    [
      "\"correct\": " ^ string_of_bool (correct r);
      Printf.sprintf "\"attempted\": %d" r.attempted;
      Printf.sprintf "\"failed\": %d" r.failed;
      "\"metrics\": "
      ^ obj
          (List.map
             (fun (name, value, unit_) ->
               json_string name ^ ": "
               ^ obj
                   [
                     "\"value\": " ^ json_float value;
                     "\"unit\": " ^ json_string unit_;
                   ])
             r.metrics);
      "\"checks\": "
      ^ obj
          (List.map
             (fun (name, cases, bad) ->
               json_string name ^ ": "
               ^ obj
                   [ Printf.sprintf "\"cases\": %d" cases; Printf.sprintf "\"bad\": %d" bad ])
             r.checks);
      "\"notes\": "
      ^ obj (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) r.notes);
    ]
