use demo::imported_then_called;

#[test]
fn calls_the_library() {
    demo::called_by_tests();
    imported_then_called();
    let _ = [1.0].map(demo::Builder::passed_as_value);
    assert_eq!(demo::Builder::default().method_called(), 0.0);
}
