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

(** Short display form of a key for reports: a stable hex digest
    prefix (keys grow with the budget; reports want a fixed-width
    name). *)
let short k = String.sub (Digest.to_hex (Digest.string k)) 0 10
