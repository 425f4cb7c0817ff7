(** Interchangeable-state canonicalizer.

    Two interleavings are {e equivalent} (Mazurkiewicz-trace equal for
    our dependence relation) iff every process receives the same
    messages in the same order — deliveries at different processes
    commute, deliveries at the same process do not.  The canonical key
    is therefore the per-process sequence of {e message identities},
    where a message is named not by its envelope id (assignment order
    is interleaving-dependent) but structurally:

    - a wake-up is ["w"];
    - a message posted by the [o]-th send of the step that is the
      [s]-th delivery at process [p] is ["p.s.o"] — and [(p, s)] names
      that step canonically by induction.

    Equal keys ⇔ same per-process delivery sequences ⇔ isomorphic
    execution graphs with identical per-process algorithm behaviour, so
    the oracle battery needs to run on only one representative per
    key.  (Not under a fault plan: {!Sim} applies plan entries by a
    global send counter, so deliveries at different processes stop
    commuting; the driver rejects boxes that carry one.)

    The key string itself is the class identity: the explorer's class
    dedup and transposition table and the driver's merge compare keys
    exactly, never a hash of them.  A hash is not injective on these
    sequences — a rolling [h·m + code] whose per-name code
    [((kind·m + p+1)·m + s+1)·m + o+1] shares the multiplier [m] maps
    receipts ending [2.0.0, 1.0.0] and [2.1.0, 0.0.0] to one value for
    every [m]; on the n = 3, e = 9 clock box such a hash merges 108 of
    the 5,112 classes. *)

let key ~nprocs (steps : Schedule.step array) : string =
  let k = Array.length steps in
  (* canonical label of each executed step: (dst, per-dst sequence no.) *)
  let labels = Array.make k (0, 0) in
  let seq = Array.make nprocs 0 in
  for i = 0 to k - 1 do
    let d = steps.(i).Schedule.sp_dst in
    labels.(i) <- (d, seq.(d));
    seq.(d) <- seq.(d) + 1
  done;
  (* built with one buffer: [Printf]-free, this is the per-class hot
     path of the explorer's terminal processing *)
  let buf = Buffer.create (16 * k) in
  let cause i =
    let c = steps.(i).Schedule.sp_posted_at in
    if c < 0 then Buffer.add_char buf 'w'
    else begin
      let p, s = labels.(c) in
      let offset = steps.(i).Schedule.sp_env - steps.(c).Schedule.sp_first_env in
      Buffer.add_string buf (string_of_int p);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int offset)
    end
  in
  let per_proc = Array.make nprocs [] in
  for i = k - 1 downto 0 do
    let d = steps.(i).Schedule.sp_dst in
    per_proc.(d) <- i :: per_proc.(d)
  done;
  for d = 0 to nprocs - 1 do
    if d > 0 then Buffer.add_char buf '|';
    List.iteri
      (fun j i ->
        if j > 0 then Buffer.add_char buf ',';
        cause i)
      per_proc.(d)
  done;
  Buffer.contents buf

(* [skip_component key lk j]: the index of the ['|'] ending the key
   component at [j], or [lk] *)
let rec skip_component key lk j =
  if j < lk && String.unsafe_get key j <> '|' then skip_component key lk (j + 1)
  else j

(* [prefix.[i..]] against [key.[j..]], one component at a time;
   [start] = [i] and [j] sit at the start of a component *)
let rec extends_from prefix lp key lk i j start =
  if i = lp || String.unsafe_get prefix i = '|' then
    (* the prefix's component ended: the key's must be at a name
       boundary there, then both move to the next component *)
    (start || j = lk || String.unsafe_get key j = '|' || String.unsafe_get key j = ',')
    && (i = lp
       ||
       let j = skip_component key lk j in
       j < lk && extends_from prefix lp key lk (i + 1) (j + 1) true)
  else
    j < lk
    && String.unsafe_get prefix i = String.unsafe_get key j
    && extends_from prefix lp key lk (i + 1) (j + 1) false

(** [extends ~prefix key]: whether the execution prefix keyed [prefix]
    reaches the class keyed [key] (both keys of one box): each
    process's receipt sequence in [prefix] is a name-level prefix of
    its sequence in [key].  That suffices because every message a
    prefix delivers was sent inside it: its receipts are a causally
    closed part of the class's, so the class has a linearization that
    starts with the prefix.  Names are compared whole, so ["0.1.1"]
    is not a prefix of ["0.1.10"]; allocates nothing. *)
let extends ~prefix key =
  extends_from prefix (String.length prefix) key (String.length key) 0 0 true

(** Short display form of a key for reports: a stable hex digest
    prefix (keys grow with the budget; reports want a fixed-width
    name). *)
let short k = String.sub (Digest.to_hex (Digest.string k)) 0 10
