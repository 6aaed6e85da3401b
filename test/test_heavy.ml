let () =
  Alcotest.run "brdb-heavy"
    (List.concat [ Test_sql.suites; Test_chaos.suites; Test_properties.suites ])
