//! `c-ray`: a small recursive sphere ray tracer.
//!
//! The original c-ray benchmark renders a scene of spheres with Phong shading
//! and specular reflections, one scanline at a time — which is also its unit
//! of parallelism in both the Pthreads and the OmpSs variants. This module
//! implements the same structure: [`render_scanline`] is the work unit, and
//! [`render`] is the sequential reference that simply loops over scanlines.

/// A 3-component vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Construct a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Vector addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }

    /// Vector subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    /// Scalar multiplication.
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction (zero vector stays zero).
    pub fn normalize(self) -> Vec3 {
        let len = self.length();
        if len == 0.0 {
            Vec3::ZERO
        } else {
            self.scale(1.0 / len)
        }
    }

    /// Reflect `self` about the unit normal `n`.
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self.sub(n.scale(2.0 * self.dot(n)))
    }
}

/// A sphere in the scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Centre position.
    pub center: Vec3,
    /// Radius.
    pub radius: f64,
    /// Diffuse colour (components in `[0, 1]`).
    pub color: Vec3,
    /// Specular reflectivity in `[0, 1]`.
    pub reflectivity: f64,
}

/// A point light.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Light {
    /// Position of the light.
    pub position: Vec3,
    /// Intensity in `[0, 1]`.
    pub intensity: f64,
}

/// The scene: spheres, lights and camera parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Spheres to render.
    pub spheres: Vec<Sphere>,
    /// Point lights.
    pub lights: Vec<Light>,
    /// Camera position (rays start here).
    pub camera: Vec3,
    /// Field-of-view scale factor.
    pub fov: f64,
    /// Maximum reflection recursion depth.
    pub max_depth: u32,
}

impl Scene {
    /// A deterministic demo scene with `n_spheres` spheres arranged on a
    /// spiral, plus a ground sphere and two lights — roughly the flavour of
    /// the `scene` file shipped with c-ray.
    pub fn demo(n_spheres: usize) -> Self {
        let mut spheres = Vec::with_capacity(n_spheres + 1);
        // Large ground sphere.
        spheres.push(Sphere {
            center: Vec3::new(0.0, -1004.0, 20.0),
            radius: 1000.0,
            color: Vec3::new(0.2, 0.2, 0.25),
            reflectivity: 0.05,
        });
        for i in 0..n_spheres {
            let t = i as f64 / n_spheres.max(1) as f64;
            let angle = t * std::f64::consts::TAU * 2.0;
            spheres.push(Sphere {
                center: Vec3::new(
                    angle.cos() * (2.0 + 3.0 * t),
                    -1.5 + 3.0 * t,
                    12.0 + 10.0 * t,
                ),
                radius: 0.5 + 0.7 * ((i * 37 % 11) as f64 / 11.0),
                color: Vec3::new(
                    0.3 + 0.7 * ((i * 13 % 7) as f64 / 7.0),
                    0.3 + 0.7 * ((i * 29 % 5) as f64 / 5.0),
                    0.3 + 0.7 * ((i * 17 % 3) as f64 / 3.0),
                ),
                reflectivity: 0.25 + 0.5 * t,
            });
        }
        Scene {
            spheres,
            lights: vec![
                Light {
                    position: Vec3::new(-20.0, 30.0, -20.0),
                    intensity: 0.9,
                },
                Light {
                    position: Vec3::new(30.0, 20.0, 10.0),
                    intensity: 0.5,
                },
            ],
            camera: Vec3::new(0.0, 0.0, -10.0),
            fov: 1.2,
            max_depth: 3,
        }
    }
}

/// Intersect a ray with a sphere; returns the distance along the ray of the
/// nearest positive hit.
fn intersect(origin: Vec3, dir: Vec3, sphere: &Sphere) -> Option<f64> {
    let oc = origin.sub(sphere.center);
    let b = 2.0 * oc.dot(dir);
    let c = oc.dot(oc) - sphere.radius * sphere.radius;
    let disc = b * b - 4.0 * c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let t1 = (-b - sq) / 2.0;
    let t2 = (-b + sq) / 2.0;
    if t1 > 1e-6 {
        Some(t1)
    } else if t2 > 1e-6 {
        Some(t2)
    } else {
        None
    }
}

/// Trace one ray, returning an RGB colour with components in `[0, 1]`.
fn trace(scene: &Scene, origin: Vec3, dir: Vec3, depth: u32) -> Vec3 {
    // Find the nearest hit.
    let mut nearest: Option<(f64, &Sphere)> = None;
    for s in &scene.spheres {
        if let Some(t) = intersect(origin, dir, s) {
            if nearest.is_none_or(|(tn, _)| t < tn) {
                nearest = Some((t, s));
            }
        }
    }
    let Some((t, sphere)) = nearest else {
        // Background: vertical gradient.
        let f = 0.5 * (dir.y + 1.0);
        return Vec3::new(0.05, 0.05, 0.1)
            .scale(1.0 - f)
            .add(Vec3::new(0.1, 0.15, 0.3).scale(f));
    };

    let hit = origin.add(dir.scale(t));
    let normal = hit.sub(sphere.center).normalize();
    let mut color = sphere.color.scale(0.08); // ambient term

    for light in &scene.lights {
        let to_light = light.position.sub(hit);
        let dist = to_light.length();
        let l = to_light.normalize();
        // Shadow test.
        let mut shadowed = false;
        for s in &scene.spheres {
            if std::ptr::eq(s, sphere) {
                continue;
            }
            if let Some(ts) = intersect(hit, l, s) {
                if ts < dist {
                    shadowed = true;
                    break;
                }
            }
        }
        if shadowed {
            continue;
        }
        let diffuse = normal.dot(l).max(0.0);
        let half = l.sub(dir).normalize();
        let specular = normal.dot(half).max(0.0).powi(32);
        color = color.add(
            sphere
                .color
                .scale(diffuse * light.intensity)
                .add(Vec3::new(1.0, 1.0, 1.0).scale(specular * light.intensity * 0.6)),
        );
    }

    if sphere.reflectivity > 0.0 && depth < scene.max_depth {
        let refl_dir = dir.reflect(normal).normalize();
        let refl = trace(scene, hit, refl_dir, depth + 1);
        color = color
            .scale(1.0 - sphere.reflectivity)
            .add(refl.scale(sphere.reflectivity));
    }
    color
}

fn to_byte(v: f64) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Render scanline `y` of a `width`×`height` image into `row`, which must
/// hold `3 * width` bytes (interleaved RGB). This is the parallel work unit
/// of the c-ray benchmark.
///
/// # Panics
/// Panics if `row.len() != 3 * width`.
pub fn render_scanline(scene: &Scene, width: usize, height: usize, y: usize, row: &mut [u8]) {
    assert_eq!(row.len(), 3 * width, "row buffer size mismatch");
    let aspect = width as f64 / height as f64;
    for x in 0..width {
        let ndc_x = ((x as f64 + 0.5) / width as f64 * 2.0 - 1.0) * scene.fov * aspect;
        let ndc_y = (1.0 - (y as f64 + 0.5) / height as f64 * 2.0) * scene.fov;
        let dir = Vec3::new(ndc_x, ndc_y, 1.0).normalize();
        let c = trace(scene, scene.camera, dir, 0);
        row[3 * x] = to_byte(c.x);
        row[3 * x + 1] = to_byte(c.y);
        row[3 * x + 2] = to_byte(c.z);
    }
}

/// Sequential reference renderer: loops over all scanlines.
pub fn render(scene: &Scene, width: usize, height: usize) -> crate::image::ImageRgb {
    let mut img = crate::image::ImageRgb::new(width, height);
    for y in 0..height {
        let range = img.row_range(y);
        render_scanline(scene, width, height, y, &mut img.data[range]);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.add(b), Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b.sub(a), Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a.scale(2.0), Vec3::new(2.0, 4.0, 6.0));
        assert!((a.dot(b) - 32.0).abs() < 1e-12);
        assert!((Vec3::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-12);
        assert!((a.normalize().length() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalize(), Vec3::ZERO);
    }

    #[test]
    fn reflection_preserves_length_for_unit_normal() {
        let v = Vec3::new(1.0, -1.0, 0.5);
        let n = Vec3::new(0.0, 1.0, 0.0);
        let r = v.reflect(n);
        assert!((r.length() - v.length()).abs() < 1e-12);
        assert!((r.y + v.y).abs() < 1e-12, "y component flips");
    }

    #[test]
    fn intersect_hits_sphere_in_front() {
        let s = Sphere {
            center: Vec3::new(0.0, 0.0, 10.0),
            radius: 2.0,
            color: Vec3::new(1.0, 0.0, 0.0),
            reflectivity: 0.0,
        };
        let t = intersect(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), &s).unwrap();
        assert!((t - 8.0).abs() < 1e-9);
        // Ray pointing away misses.
        assert!(intersect(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0), &s).is_none());
        // Ray offset beyond the radius misses.
        assert!(intersect(Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), &s).is_none());
    }

    #[test]
    fn demo_scene_is_deterministic() {
        assert_eq!(Scene::demo(8), Scene::demo(8));
        assert_eq!(Scene::demo(8).spheres.len(), 9);
    }

    #[test]
    fn render_small_image_is_deterministic_and_nontrivial() {
        let scene = Scene::demo(6);
        let a = render(&scene, 32, 24);
        let b = render(&scene, 32, 24);
        assert_eq!(a.checksum(), b.checksum());
        // The image must not be a constant colour.
        let first = a.get(0, 0);
        assert!(
            (0..24).any(|y| (0..32).any(|x| a.get(x, y) != first)),
            "rendered image is constant"
        );
    }

    #[test]
    fn scanline_rendering_matches_full_render() {
        let scene = Scene::demo(4);
        let (w, h) = (24, 16);
        let full = render(&scene, w, h);
        let mut row = vec![0u8; 3 * w];
        render_scanline(&scene, w, h, 7, &mut row);
        assert_eq!(&full.data[full.row_range(7)], &row[..]);
    }

    #[test]
    #[should_panic(expected = "row buffer size mismatch")]
    fn scanline_wrong_buffer_panics() {
        let scene = Scene::demo(1);
        let mut row = vec![0u8; 10];
        render_scanline(&scene, 8, 8, 0, &mut row);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every scanline render writes the same bytes as the full render.
        #[test]
        fn prop_scanlines_compose_full_image(w in 4usize..32, h in 4usize..24, y_frac in 0.0f64..1.0) {
            let scene = Scene::demo(3);
            let y = ((h as f64 - 1.0) * y_frac) as usize;
            let full = render(&scene, w, h);
            let mut row = vec![0u8; 3 * w];
            render_scanline(&scene, w, h, y, &mut row);
            prop_assert_eq!(&full.data[full.row_range(y)], &row[..]);
        }
    }
}
