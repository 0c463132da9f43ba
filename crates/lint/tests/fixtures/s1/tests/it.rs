#[test]
fn calls_the_library() {
    demo::called_by_tests();
}
