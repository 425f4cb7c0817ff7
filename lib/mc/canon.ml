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
    the 5,112 classes.

    The explorer builds a key at every terminal, so {!key} writes it
    straight into one string of exact length, digits in place, with no
    per-process lists, no buffer and no copy of the caller's step
    array (it takes the array and its live length): ~20 words per key
    on the e = 9 box, against 176 for a list-and-[Buffer] build over a
    copy of the steps. *)

(* decimal digits of [v >= 0] *)
let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)

(* write [c] into [b] at [pos]; the position after it *)
let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

(* write [v >= 0] in decimal into [b] at [pos]; the position after it *)
let put_int b pos v =
  let n = digits v in
  let v = ref v in
  for i = pos + n - 1 downto pos do
    Bytes.set b i (Char.chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  pos + n

(** [key ~nprocs ~len steps]: the key of the execution [steps.(0 ..
    len-1)] (the live prefix of a longer step buffer, or a whole
    array).  Built in one string of exact length: a first pass numbers
    each step among its destination's steps and sizes every name, a
    second writes the components process by process, digits in place.
    Per call it allocates the key and one int array; nothing is kept
    between calls, so concurrent searches on several domains share no
    state.  This is the per-terminal hot path of the explorer. *)
let key ~nprocs ~len (steps : Schedule.step array) : string =
  if len < 0 || len > Array.length steps then invalid_arg "Mc.Canon.key: len";
  (* [nth.(i)]: step [i]'s sequence number among the steps at its
     destination; [nth.(len + d)] counts process [d]'s steps as the
     first pass goes *)
  let nth = Array.make (len + nprocs) 0 in
  (* a '|' between two components, and per name: a ',' unless it is
     its component's first, then ["w"] or ["p.s.o"] *)
  let size = ref (max 0 (nprocs - 1)) in
  for i = 0 to len - 1 do
    let sp = steps.(i) in
    let d = sp.Schedule.sp_dst in
    nth.(i) <- nth.(len + d);
    nth.(len + d) <- nth.(len + d) + 1;
    if nth.(i) > 0 then incr size;
    let c = sp.Schedule.sp_posted_at in
    if c < 0 then incr size
    else begin
      let cs = steps.(c) in
      size :=
        !size + digits cs.Schedule.sp_dst + digits nth.(c)
        + digits (sp.Schedule.sp_env - cs.Schedule.sp_first_env)
        + 2
    end
  done;
  let b = Bytes.create !size in
  let pos = ref 0 in
  for d = 0 to nprocs - 1 do
    if d > 0 then pos := put_char b !pos '|';
    for i = 0 to len - 1 do
      let sp = steps.(i) in
      if sp.Schedule.sp_dst = d then begin
        if nth.(i) > 0 then pos := put_char b !pos ',';
        let c = sp.Schedule.sp_posted_at in
        if c < 0 then pos := put_char b !pos 'w'
        else begin
          let cs = steps.(c) in
          pos := put_int b !pos cs.Schedule.sp_dst;
          pos := put_char b !pos '.';
          pos := put_int b !pos nth.(c);
          pos := put_char b !pos '.';
          pos := put_int b !pos (sp.Schedule.sp_env - cs.Schedule.sp_first_env)
        end
      end
    done
  done;
  Bytes.unsafe_to_string b

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
