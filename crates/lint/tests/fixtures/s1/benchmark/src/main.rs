fn main() {
    demo::called_by_benchmark();
}
