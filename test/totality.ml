(* The contract every text reader answers to: whatever bytes arrive, it
   returns a value or an error at a line inside the input, and it never
   raises.  [props] builds the three qcheck fuzzers each reader runs:
   random bytes, format-shaped documents built from the format's own
   words, and one-byte mutations of printed valid input. *)

let lines_of s = List.length (String.split_on_char '\n' s)

(* [error_line s] is [None] when the reader accepts [s], else the line
   its error names. *)
let holds ~what error_line s =
  match error_line s with
  | None -> true
  | Some line -> 1 <= line && line <= lines_of s
  | exception e -> QCheck.Test.fail_reportf "%s raised %s on %S" what (Printexc.to_string e) s

(* [printed ~n ~seed] is a valid document over [n] components. *)
let props ~what ~words ~printed error_line =
  let total = holds ~what error_line in
  let token =
    QCheck.Gen.oneof
      (List.map QCheck.Gen.return words
      @ [
          QCheck.Gen.return "#";
          QCheck.Gen.return ";";
          QCheck.Gen.return "-1";
          QCheck.Gen.return "1e308";
          QCheck.Gen.return "nan";
          QCheck.Gen.return "inf";
          QCheck.Gen.return "0";
          QCheck.Gen.return "1.5";
          QCheck.Gen.map (Printf.sprintf "%d") QCheck.Gen.small_int;
          QCheck.Gen.small_string ~gen:QCheck.Gen.printable;
        ])
  in
  let list_of k g = QCheck.Gen.list_size (QCheck.Gen.int_range 0 k) g in
  let line = QCheck.Gen.map (String.concat " ") (list_of 5 token) in
  let doc = QCheck.Gen.map (String.concat "\n") (list_of 12 line) in
  [
    QCheck.Test.make ~name:(what ^ ": total on random bytes") ~count:500
      QCheck.(string_gen (Gen.int_range 0 255 |> Gen.map Char.chr))
      total;
    QCheck.Test.make ~name:(what ^ ": total on format-shaped fuzz") ~count:500
      (QCheck.make ~print:(fun s -> s) doc)
      total;
    QCheck.Test.make ~name:(what ^ ": total on mutated valid input") ~count:300
      QCheck.(triple (int_range 2 20) (int_range 0 1000) (int_range 0 255))
      (fun (n, pos_seed, byte) ->
        let s = Bytes.of_string (printed ~n ~seed:pos_seed) in
        if Bytes.length s = 0 then true
        else begin
          Bytes.set s (pos_seed mod Bytes.length s) (Char.chr byte);
          total (Bytes.to_string s)
        end);
  ]
