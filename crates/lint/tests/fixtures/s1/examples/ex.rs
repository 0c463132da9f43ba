use demo::*;

/// Another type's `top_speed`: a definition is no call.
struct Car;

#[allow(dead_code)]
impl Car {
    fn top_speed(&self) -> f64 {
        33.0
    }
}

fn main() {
    demo::called_by_examples();
    turbofished::<u8>();
}
