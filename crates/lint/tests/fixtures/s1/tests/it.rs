use vanet_demo::imported_then_called;

#[test]
fn calls_the_library() {
    vanet_demo::called_by_tests();
    imported_then_called();
    let _ = vanet_demo::pathed::Marker;
    let _ = [1.0].map(vanet_demo::Builder::passed_as_value);
    assert_eq!(vanet_demo::Builder::default().method_called(), 0.0);
}
