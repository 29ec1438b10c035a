let () =
  Alcotest.run "absolver"
    [
      ("numeric", Test_numeric.suite);
      ("sat", Test_sat.suite);
      ("lp", Test_lp.suite);
      ("nlp", Test_nlp.suite);
      ("circuit", Test_circuit.suite);
      ("core", Test_core.suite);
      ("model", Test_model.suite);
      ("smtlib", Test_smtlib.suite);
      ("baselines", Test_baselines.suite);
      ("encodings", Test_encodings.suite);
      ("preprocess", Test_preprocess.suite);
      ("telemetry", Test_telemetry.suite);
      ("tracetool", Test_tracetool.suite);
      ("resource", Test_resource.suite);
      ("incremental", Test_incremental.suite);
      ("server", Test_server.suite);
      ("chaos", Test_chaos.suite);
      ("integration", Test_integration.suite);
      ("extra", Test_extra.suite);
      ("proof-diagnosis", Test_proof_diagnosis.suite);
      ("flatcore", Test_flatcore.suite);
      ("work-pin", Test_work_pin.suite);
      ("frontend", Test_frontend.suite);
    ]
