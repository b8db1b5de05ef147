//! A005 fixture: off the ORB/Da CaPo data path, unbounded queues are fine.

pub fn off_path() {
    let (_tx, _rx) = crossbeam::channel::unbounded::<u8>();
}
