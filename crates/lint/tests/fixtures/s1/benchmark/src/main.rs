use vanet_demo::{called_by_benchmark, grouped::Marker};

fn main() {
    called_by_benchmark();
    let _ = Marker;
}
