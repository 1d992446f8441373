//! VR-avatar style mesh export: reconstruct MANO meshes for a set of
//! gestures and write them as OBJ files — the virtual-reality modelling
//! application from the paper's introduction.
//!
//! ```sh
//! cargo run --release -p mmhand-examples --example mesh_export
//! # then open target/mmhand-examples/*.obj in a mesh viewer
//! ```

use mmhand_core::mesh::{MeshFitConfig, MeshReconstructor};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::shape::HandShape;
use mmhand_math::Vec3;
use std::fs;
use std::path::PathBuf;

fn main() {
    let out_dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("mmhand-examples");
    fs::create_dir_all(&out_dir).expect("create output directory");

    // Train the shape/pose networks on synthetic hands (paper §V); the
    // analytic IK fallback is exported alongside for comparison.
    println!("fitting MANO shape & pose networks…");
    let mut reconstructor = MeshReconstructor::new(7);
    let final_loss = reconstructor.fit(&MeshFitConfig { steps: 400, ..Default::default() });
    println!("  final fit loss {final_loss:.3}");

    let shape = HandShape::default();
    for gesture in [
        Gesture::OpenPalm,
        Gesture::SpreadPalm,
        Gesture::Fist,
        Gesture::Point,
        Gesture::Ok,
        Gesture::ThumbsUp,
        Gesture::Count(5),
    ] {
        let mut pose = gesture.pose();
        pose.position = Vec3::new(0.0, 0.3, 0.0);
        let skeleton: Vec<f32> = pose
            .joints(&shape)
            .iter()
            .flat_map(|v| v.to_array())
            .collect();

        let learned = reconstructor.try_reconstruct(&skeleton).expect("fitted, 63-float skeleton");
        let analytic = reconstructor.try_reconstruct_analytic(&skeleton).expect("63 floats");
        let name = gesture.name();
        let learned_path = out_dir.join(format!("{name}_net.obj"));
        let analytic_path = out_dir.join(format!("{name}_ik.obj"));
        fs::write(&learned_path, learned.mesh.to_obj()).expect("write mesh");
        fs::write(&analytic_path, analytic.mesh.to_obj()).expect("write mesh");
        println!(
            "{name:<12} → {} ({} verts) + {}",
            learned_path.display(),
            learned.mesh.vertices.len(),
            analytic_path.display(),
        );
    }
    println!("open the OBJ files in any mesh viewer");
}
