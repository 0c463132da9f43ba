//! The paper's two analytic figures, which need no simulation: Fig. 3, link
//! lifetime against the mobility parameters (Eq. 1–4, with the Sec. VII
//! expected lifetime beside it), and Fig. 4, same-direction against
//! opposite-direction link duration with the velocity-projection test.
//!
//! Run with: `cargo run --release --example link_lifetime_figures`

use vanet::links::{
    expected_link_duration, link_lifetime_constant_acceleration, link_lifetime_constant_speed,
    same_direction, DirectionGroup,
};
use vanet::mobility::Vec2;

const RANGE_M: f64 = 250.0;

fn main() {
    println!("Figure 3 — link lifetime vs relative speed / acceleration (r = 250 m)\n");
    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>14}",
        "d0_m", "dv_mps", "da_mps2", "lifetime_s", "E[lifetime]_s"
    );
    for d0 in [-150.0, 0.0, 150.0] {
        for dv in [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0] {
            for da in [0.0, 0.5, -0.5] {
                let lifetime = if da == 0.0 {
                    link_lifetime_constant_speed(d0, dv, 0.0, RANGE_M)
                } else {
                    link_lifetime_constant_acceleration(d0, dv, 0.0, da, 0.0, RANGE_M)
                };
                // The expected lifetime when the relative speed is uncertain
                // (σ = 3 m/s).
                let expected = expected_link_duration(d0, dv, 3.0, RANGE_M);
                println!(
                    "{d0:>6.0} {dv:>6.1} {da:>8.1} {:>12.1} {expected:>14.1}",
                    lifetime.duration_s
                );
            }
        }
    }

    println!("\nFigure 4 — same-direction vs opposite-direction link duration\n");
    println!(
        "{:>10} {:>16} {:>20}",
        "speed_mps", "same_dir_life_s", "opposite_dir_life_s"
    );
    for speed in [10.0, 15.0, 20.0, 25.0, 30.0, 35.0] {
        // Same direction: a 5 m/s speed difference; opposite: head-on.
        let same = link_lifetime_constant_speed(0.0, speed, speed - 5.0, RANGE_M);
        let opposite = link_lifetime_constant_speed(0.0, speed, -speed, RANGE_M);
        println!(
            "{speed:>10.0} {:>16.1} {:>20.1}",
            same.duration_s, opposite.duration_s
        );
    }

    // The projection predicate against the velocity-group classification,
    // over every pair of 15°-spaced headings.
    let headings = || (0..360).step_by(15).map(|deg| f64::from(deg).to_radians());
    let (mut agree, mut total) = (0u32, 0u32);
    for a in headings() {
        for b in headings() {
            let (a_vel, b_vel) = (Vec2::from_angle(a) * 20.0, Vec2::from_angle(b) * 20.0);
            let predicate =
                same_direction(Vec2::new(0.0, 0.0), a_vel, Vec2::new(120.0, 35.0), b_vel);
            agree += u32::from(predicate == DirectionGroup::same_group(a_vel, b_vel));
            total += 1;
        }
    }
    println!(
        "\nprojection predicate vs velocity-group classification agreement: {:.0}%",
        f64::from(agree) / f64::from(total) * 100.0
    );
}
